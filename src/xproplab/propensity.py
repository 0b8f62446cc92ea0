"""Label-wise propensity model families, probability adjustment and diagnostics.

All evaluated propensities are clamped into ``(P_MIN, 1]`` so that inverse
propensities stay finite even in degenerate parameter regimes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .data import LabelPriors

P_MIN = 1e-6


class DegenerateRegimeWarning(UserWarning):
    """Parameters put the model outside its sensible codomain; values were clamped."""


def clamp(p):
    return np.clip(p, P_MIN, 1.0)


@dataclass(frozen=True)
class Family:
    """One entry of :data:`FAMILY_TABLE`.

    ``fn(priors, **params)`` is the family's ``eval_*`` function.  ``inits(priors,
    targets)`` gives the five-point grid a fit starts from (a parameter the grid
    leaves out must be fixed in the fit), or is None for a family that cannot be
    fitted.  ``per_label`` marks a family whose one parameter is a per-label table.
    """

    params: tuple  # parameter names, in canonical order
    fn: Callable
    inits: Optional[Callable] = None
    per_label: bool = False

    def evaluate(self, priors, params: dict) -> np.ndarray:
        """Propensity of every prior, clamped; ``ValueError`` outside the domain."""
        return np.atleast_1d(self.fn(priors, **params))


def _family_of(name) -> Family:
    """The table entry of ``name``; ``ValueError`` listing the families otherwise."""
    if name not in FAMILY_TABLE:
        raise ValueError(f"family must be one of {', '.join(FAMILY_TABLE)}, got '{name}'")
    return FAMILY_TABLE[name]


@dataclass(frozen=True)
class PropensityModelSpec:
    """A parameterized propensity family.

    ``params`` maps each parameter name of the family to a float; the
    ``direct`` family instead carries a per-label ``table`` array.
    """

    family: str
    params: dict

    def __post_init__(self):
        names = _family_of(self.family).params
        for key in self.params:
            if key not in names:
                raise ValueError(f"{key} is not a parameter of {self.family} "
                                 f"(its parameters: {', '.join(names)})")
        for name in names:
            if name not in self.params:
                raise ValueError(f"{name} is missing: {self.family} needs {', '.join(names)}")

    def to_text(self) -> str:
        """The spec as the body of a ``[propensity.*]`` config section."""
        lines = [f"family = {self.family}"]
        for name in FAMILY_TABLE[self.family].params:
            lines.append(f"{name} = " + ",".join(repr(float(v))
                                                  for v in np.ravel(self.params[name])))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_mapping(cls, kv) -> "PropensityModelSpec":
        """Parse ``{key: text}``: ``family`` names a table entry and every other
        key is one of its parameters, a finite number (comma-separated for a
        per-label table).  A ``ValueError`` names the key at fault."""
        kv = dict(kv)
        family = kv.pop("family", "")
        per_label = _family_of(family).per_label
        kind = "comma-separated finite numbers" if per_label else "a finite number"
        params = {}
        for key, text in kv.items():
            try:
                params[key] = (np.array([float(v) for v in text.split(",")]) if per_label
                               else float(text))
            except ValueError:
                params[key] = np.nan
            if not np.all(np.isfinite(params[key])):
                raise ValueError(f"{key} must be {kind}, got '{text}'")
        return cls(family=family, params=params)


@dataclass(frozen=True)
class PropensityAssignment:
    """Per-label propensities in ``(0, 1]`` with provenance."""

    m: int
    p: np.ndarray
    source: str

    def __post_init__(self):
        if len(self.p) != self.m:
            raise ValueError("propensity vector length must equal m")
        if not np.all((self.p > 0) & (self.p <= 1)):  # also rejects nan
            raise ValueError("propensities must lie in (0, 1]")

    def inverse(self) -> np.ndarray:
        return 1.0 / self.p


def eval_freq_sigmoid(prior, n: int, a: float, b: float):
    """Sigmoid-in-log-frequency propensity: 1 / (1 + (ln n - 1)(b+1)^a (n*prior + b)^-a).

    This is the model of Jain et al., "Extreme Multi-label Loss Functions for
    Recommendation, Tagging, Ranking & Other Missing Label Applications"
    (KDD 2016), with ``n*prior`` the label's count in a dataset of n points.
    ``ln`` is the natural log, as in pyxclib's ``compute_inv_propesity``.

    The model depends on the dataset size: at a fixed prior,
    1 - p ~ (ln n)(b+1)^a (n*prior)^-a, which goes to 0 as n grows, so every
    label with a fixed relative frequency tends to propensity 1.

    Accepts scalars or arrays; the result is clamped into ``(P_MIN, 1]``.  For
    n < 3 the raw formula leaves (0, 1] and a :class:`DegenerateRegimeWarning`
    is issued.
    """
    prior = np.asarray(prior, dtype=np.float64)
    if n < 1:
        raise ValueError("n must be >= 1")
    if np.any(n * prior + b <= 0):
        raise ValueError("n*prior + b must be positive")
    if n < 3:
        warnings.warn("ln(n) - 1 <= 0 for n < 3: values leave (0, 1] and are clamped",
                      DegenerateRegimeWarning, stacklevel=2)
    # (n*prior + b)^-a via exp/log keeps the computation stable for huge n
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-a * np.log(n * prior + b))
        raw = 1.0 / (1.0 + (np.log(n) - 1.0) * (b + 1.0) ** a * decay)
    out = clamp(raw)
    return out if out.ndim else float(out)


def eval_power(prior, beta: float, gamma: float):
    """Power-law propensity (beta * prior)^gamma, clamped into ``(P_MIN, 1]``."""
    prior = np.asarray(prior, dtype=np.float64)
    if np.any(beta * prior <= 0):
        raise ValueError("beta * prior must be positive")
    out = clamp((beta * prior) ** gamma)
    return out if out.ndim else float(out)


def eval_richards(prior, c: float, d: float, e: float, f: float, g: float, h: float):
    """Generalized logistic propensity c + (d - c)/(e + f*exp(-g*prior))^(1/h)."""
    prior = np.asarray(prior, dtype=np.float64)
    if h == 0:
        raise ValueError("h must be nonzero")
    # a huge -g*prior or 1/h sends exp or base**(1/h) to inf or 0; clamp maps the
    # quotient into (P_MIN, 1]
    with np.errstate(divide="ignore", over="ignore"):
        # f = 0 drops the term, where 0 * exp(-g*prior) could be 0 * inf = nan
        base = e + (f * np.exp(-g * prior) if f != 0 else np.zeros_like(prior))
        if not np.all(base > 0):  # also rejects nan
            raise ValueError("e + f*exp(-g*prior) must be positive over the evaluated domain")
        out = clamp(c + (d - c) / base ** (1.0 / h))
    return out if out.ndim else float(out)


def _target_mean(targets) -> float:
    return float(np.clip(np.mean(targets), 0.05, 1.0))


def _power_law_inits(priors, targets) -> list:
    inv_max = 1.0 / float(priors.max())
    return [{"beta": b, "gamma": g} for b, g in
            ((1.0, 1.0), (1.0, 0.5), (inv_max, 0.5), (inv_max, 1.0), (1.0, 0.3))]


def _richards_inits(priors, targets) -> list:
    g0 = 1.0 / max(float(np.median(priors)), 1e-12)
    return [{"c": 0.0, "d": 1.0, "e": 1.0, "f": 1.0, "g": g0, "h": 1.0},
            {"c": 0.0, "d": 1.0, "e": 1.0, "f": 10.0, "g": g0, "h": 1.0},
            {"c": _target_mean(targets) / 2, "d": 1.0, "e": 1.0, "f": 1.0, "g": g0 / 2,
             "h": 1.0},
            {"c": 0.0, "d": 1.0, "e": 1.0, "f": 5.0, "g": 2 * g0, "h": 2.0},
            {"c": 0.0, "d": 1.0, "e": 1.0, "f": 1.0, "g": g0 / 10, "h": 0.5}]


def _eval_direct(priors, table) -> np.ndarray:
    table = np.asarray(table, dtype=np.float64)
    if len(table) != len(priors):
        raise ValueError("direct table length must equal m")
    return clamp(table)


# every propensity family: adding one is one entry here
FAMILY_TABLE = {
    "constant": Family(("p",), lambda priors, p: clamp(np.full(len(priors), float(p))),
                       lambda priors, targets: [{"p": v} for v in
                                                (_target_mean(targets), 0.1, 0.3, 0.7, 1.0)]),
    # the grid leaves out n, the dataset size, which a fit fixes
    "freq_sigmoid": Family(("a", "b", "n"),
                           lambda priors, a, b, n: eval_freq_sigmoid(priors, int(n), a, b),
                           lambda priors, targets: [{"a": a, "b": b} for a, b in (
                               (0.55, 1.5), (0.5, 0.4), (0.6, 2.6), (1.0, 1.0), (0.2, 5.0))]),
    "power_law": Family(("beta", "gamma"), eval_power, _power_law_inits),
    "richards": Family(("c", "d", "e", "f", "g", "h"), eval_richards, _richards_inits),
    "direct": Family(("table",), _eval_direct, per_label=True),
}

# the families a fit can start from a grid, in table order
FITTABLE = tuple(name for name, family in FAMILY_TABLE.items() if family.inits is not None)


def adjust_probability(eta_obs, p):
    """Recover the clean conditional probability: min(eta_obs / p, 1)."""
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p > 0) & (p <= 1)):  # also rejects nan
        raise ValueError("propensity must lie in (0, 1]")
    out = np.minimum(np.asarray(eta_obs, dtype=np.float64) / p, 1.0)
    return out if out.ndim else float(out)


def direct_estimate(priors_train: LabelPriors, priors_val: LabelPriors,
                    p_controlled) -> PropensityAssignment:
    """Estimate per-label training propensities from a bias-controlled validation set.

    ``p[j] = clamp(prior_train[j] * p_controlled[j] / prior_val[j])`` where
    ``p_controlled`` is the known bias of the validation set (scalar or vector).
    """
    if priors_train.m != priors_val.m:
        raise ValueError("prior vectors must share m")
    pc = np.broadcast_to(np.asarray(p_controlled, dtype=np.float64), (priors_train.m,))
    if not np.all((pc > 0) & (pc <= 1)):  # also rejects nan
        raise ValueError("controlled propensity must lie in (0, 1]")
    if not np.all(priors_val.priors > 0):
        raise ValueError("validation priors must be positive (use smoothing)")
    p = clamp(priors_train.priors * pc / priors_val.priors)
    return PropensityAssignment(m=priors_train.m, p=p, source="direct")


def assign(spec: PropensityModelSpec, priors: LabelPriors) -> PropensityAssignment:
    """Evaluate a model family on per-label priors."""
    p = FAMILY_TABLE[spec.family].evaluate(priors.priors, spec.params)
    return PropensityAssignment(m=priors.m, p=p, source=spec.family)


@dataclass(frozen=True)
class ScalingDiagnostic:
    points: tuple                    # ((n, p), ...) along the grid
    eventually_increasing: bool      # is some suffix of the sequence monotone increasing
    terminal: float                  # value at the largest n


def scaling_diagnostic(a: float, b: float, prior: float,
                       n_grid: Sequence[int]) -> ScalingDiagnostic:
    """Trace the n-dependence of the frequency-sigmoid model along a grid of dataset sizes."""
    grid = [int(n) for n in n_grid]
    if any(x > y for x, y in zip(grid, grid[1:])):
        raise ValueError("n_grid must be sorted ascending")
    if any(n < 3 for n in grid):
        raise ValueError("n_grid entries must be >= 3")
    values = [float(eval_freq_sigmoid(prior, n, a, b)) for n in grid]
    increasing_from = len(values) - 1
    for i in range(len(values) - 1, 0, -1):
        if values[i] > values[i - 1]:
            increasing_from = i - 1
        else:
            break
    eventually = increasing_from < len(values) - 1 or len(values) == 1
    return ScalingDiagnostic(points=tuple(zip(grid, values)),
                             eventually_increasing=eventually,
                             terminal=values[-1])


# parameter sets reported for the frequency-sigmoid model
FREQ_SIGMOID_WIKIPEDIA = {"a": 0.5, "b": 0.4}
FREQ_SIGMOID_AMAZON = {"a": 0.6, "b": 2.6}
FREQ_SIGMOID_DEFAULT = {"a": 0.55, "b": 1.5}
