"""Label-wise propensity model families, their evaluation and direct estimation.

All evaluated propensities are clamped into ``[P_MIN, 1]`` so that inverse
propensities stay finite even in degenerate parameter regimes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .data import LabelPriors

P_MIN = 1e-6


class DegenerateRegimeWarning(UserWarning):
    """Parameters put the model outside its sensible codomain; values were clamped."""


def clamp(p):
    return np.clip(p, P_MIN, 1.0)


def _family_function(kernel, prior, params: dict):
    """A family's ``kernel`` at one parameter set or at K sets in one call.

    ``kernel(prior, **params)`` broadcasts its parameters, each a (K, 1) column,
    against ``prior`` and returns the clamped propensities and a list of
    ``(mask, problem)`` checks in the order they apply: ``mask`` is true where
    the parameters are outside the domain (``problem`` the error message) or in
    a degenerate regime that is only warned about (``problem`` a Warning,
    listed last).

    Scalar parameters are one set, K = 1: the values in the shape of ``prior``
    (a float for a scalar prior), or a ``ValueError`` with the message of the
    first check that fails.  Parameters given as K entries against 1-D priors
    (a scalar among them is shared by every row) give ``(values, ok)``: the K×m
    propensities and the (K,) mask of the rows that pass every check and are
    finite; the other rows' values are meaningless.
    """
    prior = np.asarray(prior, dtype=np.float64)
    one_set = not any(np.ndim(v) for v in params.values())
    values, checks = kernel(prior, **{k: np.reshape(v, (-1, 1)) for k, v in params.items()})
    failed = np.zeros(1, dtype=bool)
    for mask, problem in checks:
        rows = mask.reshape(len(mask), -1).any(axis=1)  # the (K,) sets the mask flags
        if isinstance(problem, Warning):
            if (rows & ~failed).any():
                warnings.warn(problem, stacklevel=3)
        elif one_set and rows.any():
            raise ValueError(problem.format(**params))
        else:
            failed = failed | rows
    if not one_set:
        return values, np.isfinite(values).all(axis=1) & ~failed
    values = values.reshape(prior.shape)
    return values if values.ndim else float(values)


def _row_power(base, ex) -> np.ndarray:
    """``base ** ex``, each row raised to its own scalar exponent (a scalar or
    single-row exponent raises every row).

    numpy takes sqrt, square and reciprocal fast paths for a scalar exponent of
    0.5, 2 or -1, which differ in the last bit from ``np.power`` over an exponent
    array; row by row the batch stays bit-identical to one parameter set.
    """
    ex = np.ravel(ex)
    if len(ex) == 1:
        return base ** ex[0]
    return np.array([base[k % len(base)] ** e for k, e in enumerate(ex)])


def _scalar_power(x, ex) -> np.ndarray:
    """``x ** ex`` over broadcast parameter arrays, one numpy scalar power per
    entry: ``np.power`` over an array differs from the scalar power in the last
    bit for about 5% of inputs."""
    x, ex = np.asarray(x), np.asarray(ex)
    if x.shape != ex.shape:
        x, ex = np.broadcast_arrays(x, ex)
    return np.array([v ** e for v, e in zip(x.flat, ex.flat)]).reshape(x.shape)


@dataclass(frozen=True)
class Family:
    """One entry of :data:`FAMILY_TABLE`.

    ``fn(priors, **params)``, the family's ``eval_*`` function, has two call
    forms.  Scalar parameters are one set: it returns the clamped propensity of
    every prior, or raises ``ValueError`` outside the domain.  Parameters given
    as K entries (a scalar among them shared by every set) are K sets: it
    returns ``(values, ok)``, K rows of clamped propensities and the (K,) mask
    of the rows inside the domain and finite, row k bit-identical to set k
    alone.  ``inits(priors, targets)`` gives the five-point grid a fit starts
    from (a parameter the grid leaves out must be fixed in the fit), or is None
    for a family that cannot be fitted.  ``per_label`` marks a family whose one
    parameter is a per-label table; its ``fn`` takes one set only.
    """

    params: tuple  # parameter names, in canonical order
    fn: Callable
    inits: Optional[Callable] = None
    per_label: bool = False


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
    """Per-label propensities in ``(0, 1]``, one per label."""

    p: np.ndarray

    def __post_init__(self):
        if np.ndim(self.p) != 1:
            raise ValueError("propensities must be a 1-D array, one per label")
        if not np.all((self.p > 0) & (self.p <= 1)):  # also rejects nan
            raise ValueError("propensities must lie in (0, 1]")

    m = property(lambda self: len(self.p))

    def inverse(self) -> np.ndarray:
        return 1.0 / self.p


def _freq_sigmoid(prior, a, b, n):
    count = n * prior + b
    with np.errstate(all="ignore"):  # parameters outside the domain may give nan
        # (n*prior + b)^-a via exp/log keeps the computation stable for huge n
        decay = np.exp(-a * np.log(count))
        raw = 1.0 / (1.0 + (np.log(n) - 1.0) * _scalar_power(b + 1.0, a) * decay)
    return clamp(raw), [
        (~(np.isfinite(n) & (n == np.floor(n))), "n must be an integer, got {n}"),
        (n < 1, "n must be >= 1"),
        (count <= 0, "n*prior + b must be positive"),
        # (b+1)^a is not real for b < -1 unless a is an integer
        ((b + 1.0 < 0) & (a != np.floor(a)),
         "b must be >= -1 unless a is an integer, got b={b}"),
        (n < 3, DegenerateRegimeWarning(
            "ln(n) - 1 <= 0 for n < 3: values leave (0, 1] and are clamped"))]


def eval_freq_sigmoid(prior, n: int, a: float, b: float):
    """Sigmoid-in-log-frequency propensity: 1 / (1 + (ln n - 1)(b+1)^a (n*prior + b)^-a).

    This is the model of Jain et al., "Extreme Multi-label Loss Functions for
    Recommendation, Tagging, Ranking & Other Missing Label Applications"
    (KDD 2016), with ``n*prior`` the label's count in a dataset of n points.
    ``ln`` is the natural log, as in pyxclib's ``compute_inv_propesity``.

    The model depends on the dataset size: at a fixed prior,
    1 - p ~ (ln n)(b+1)^a (n*prior)^-a, which goes to 0 as n grows, so every
    label with a fixed relative frequency tends to propensity 1.

    ``n`` must be integral (an int or a float such as 1000.0), and ``b`` at
    least -1 unless ``a`` is an integer, since (b+1)^a is not real otherwise.
    Accepts scalar or array priors; the result is clamped into ``[P_MIN, 1]``.
    For n < 3 the raw formula leaves (0, 1] and a
    :class:`DegenerateRegimeWarning` is issued.
    """
    return _family_function(_freq_sigmoid, prior, {"a": a, "b": b, "n": n})


def _power(prior, beta, gamma):
    base = beta * prior
    with np.errstate(all="ignore"):  # parameters outside the domain may give nan
        out = clamp(_row_power(base, gamma))
    return out, [(base <= 0, "beta * prior must be positive")]


def eval_power(prior, beta: float, gamma: float):
    """Power-law propensity (beta * prior)^gamma, clamped into ``[P_MIN, 1]``."""
    return _family_function(_power, prior, {"beta": beta, "gamma": gamma})


def _richards(prior, c, d, e, f, g, h):
    # a huge -g*prior or 1/h sends exp or base**(1/h) to inf or 0; clamp maps the
    # quotient into [P_MIN, 1]; parameters outside the domain may give nan
    with np.errstate(all="ignore"):
        # f = 0 drops the term, where 0 * exp(-g*prior) could be 0 * inf = nan
        base = e + np.where(f != 0, f * np.exp(-g * prior), 0.0)
        out = clamp(c + (d - c) / _row_power(base, np.divide(1.0, h)))
    return out, [(h == 0, "h must be nonzero"),
                 (~(base > 0),  # also rejects nan
                  "e + f*exp(-g*prior) must be positive over the evaluated domain")]


def eval_richards(prior, c: float, d: float, e: float, f: float, g: float, h: float):
    """Generalized logistic propensity c + (d - c)/(e + f*exp(-g*prior))^(1/h)."""
    return _family_function(_richards, prior,
                            {"c": c, "d": d, "e": e, "f": f, "g": g, "h": h})


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


def _constant(priors, p):
    shape = np.broadcast_shapes(np.shape(p), priors.shape)
    return clamp(np.full(shape, p, dtype=np.float64)), []


def _eval_direct(priors, table) -> np.ndarray:
    table = np.asarray(table, dtype=np.float64)
    if len(table) != len(priors):
        raise ValueError("direct table length must equal m")
    return clamp(table)


# every propensity family: adding one is one entry here
FAMILY_TABLE = {
    "constant": Family(("p",), lambda priors, p: _family_function(_constant, priors, {"p": p}),
                       lambda priors, targets: [{"p": v} for v in
                                                (_target_mean(targets), 0.1, 0.3, 0.7, 1.0)]),
    # the grid leaves out n, the dataset size, which a fit fixes; it starts from
    # Jain et al.'s default, Wikipedia and Amazon values
    "freq_sigmoid": Family(("a", "b", "n"), eval_freq_sigmoid,
                           lambda priors, targets: [{"a": a, "b": b} for a, b in (
                               (0.55, 1.5), (0.5, 0.4), (0.6, 2.6), (1.0, 1.0), (0.2, 5.0))]),
    "power_law": Family(("beta", "gamma"), eval_power, _power_law_inits),
    "richards": Family(("c", "d", "e", "f", "g", "h"), eval_richards, _richards_inits),
    "direct": Family(("table",), _eval_direct, per_label=True),
}

# the families a fit can start from a grid, in table order
FITTABLE = tuple(name for name, family in FAMILY_TABLE.items() if family.inits is not None)


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
    return PropensityAssignment(p)


def assign(spec: PropensityModelSpec, priors: LabelPriors) -> PropensityAssignment:
    """Evaluate a model family on per-label priors."""
    return PropensityAssignment(FAMILY_TABLE[spec.family].fn(priors.priors, **spec.params))


# the frequency-sigmoid parameters Jain et al. use where no others are reported
FREQ_SIGMOID_DEFAULT = {"a": 0.55, "b": 1.5}
