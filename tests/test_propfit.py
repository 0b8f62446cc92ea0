import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from xproplab.propensity import (FAMILY_TABLE, FITTABLE, P_MIN, PropensityAssignment,
                                 PropensityModelSpec, assign)
from xproplab.propfit import FitProblem, _lm_starts, fit_family, fit_mse, lm_fit
from xproplab import experiments
from xproplab.data import LabelPriors

from _data import lm_fit_one_start


def make_priors(p):
    p = np.asarray(p, dtype=np.float64)
    return LabelPriors(counts=(p * 1000).astype(int), priors=p)


class TestFitMse:
    def test_identity(self):
        a = PropensityAssignment(np.array([0.2, 0.5, 1.0]))
        assert fit_mse(a, a.p) == 0.0

    def test_hand_value(self):
        a = PropensityAssignment(np.full(4, 0.5))
        assert fit_mse(a, np.full(4, 0.25)) == pytest.approx(4.0)

    def test_length_check(self):
        a = PropensityAssignment(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            fit_mse(a, np.array([0.5]))

    @pytest.mark.parametrize("target", [0.0, 1.5, np.nan])
    def test_rejects_target_outside_unit_interval(self, target):
        a = PropensityAssignment(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="targets must lie in"):
            fit_mse(a, np.array([0.5, target]))


class TestLmFit:
    def test_power_law_gamma_recovery(self):
        rng = np.random.default_rng(3)
        priors = rng.uniform(1e-3, 0.5, 100)
        targets = priors ** 0.3  # power law with beta = 1, gamma = 0.3
        problem = FitProblem(priors=priors, targets=targets, family="power_law",
                             fixed={"beta": 1.0})
        result = lm_fit(problem, [1.0])
        assert result.converged
        assert result.params["gamma"] == pytest.approx(0.3, abs=1e-2)

    def test_constant_perfect_fit(self):
        priors = np.linspace(0.01, 0.4, 10)
        problem = FitProblem(priors=priors, targets=np.ones(10), family="constant")
        result = lm_fit(problem, [0.5])
        assert result.params["p"] == pytest.approx(1.0, abs=1e-6)
        assert result.mse == pytest.approx(0.0, abs=1e-10)

    def test_freq_sigmoid_small_n_degenerate(self):
        # tiny n pushes the family out of codomain; the fit must not pretend success
        rng = np.random.default_rng(5)
        priors = rng.uniform(0.05, 0.5, 30)
        targets = np.clip(priors ** 0.4, None, 1.0)
        problem = FitProblem(priors=priors, targets=targets, family="freq_sigmoid",
                             fixed={"n": 3.0})
        result = lm_fit(problem, [0.55, 1.5], max_iter=50)
        spec = result.spec("freq_sigmoid")
        fitted = assign(spec, make_priors(priors))
        # either the optimizer reports failure or the fit stays visibly bad
        assert (not result.converged) or fit_mse(fitted, targets) > 1e-4

    def test_monotone_objective(self):
        rng = np.random.default_rng(11)
        priors = rng.uniform(1e-3, 0.3, 60)
        targets = np.clip((5 * priors) ** 0.6, None, 1.0)
        problem = FitProblem(priors=priors, targets=targets, family="power_law")
        objectives = []

        theta = np.array([1.0, 1.0])
        last = np.inf
        for _ in range(30):
            result = lm_fit(problem, theta, max_iter=1)
            theta = np.array([result.params["beta"], result.params["gamma"]])
            assert result.mse <= last + 1e-12
            last = result.mse
            objectives.append(result.mse)
        assert objectives[-1] <= objectives[0]

    def test_init_validation(self):
        problem = FitProblem(priors=np.array([0.1]), targets=np.array([0.5]),
                             family="power_law")
        with pytest.raises(ValueError):
            lm_fit(problem, [1.0])  # wrong arity: two free params
        with pytest.raises(ValueError):
            lm_fit(problem, [-1.0, 0.5])  # beta <= 0 violates the domain

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, 2.0, "5", None])
    def test_max_iter_must_be_a_positive_integer(self, max_iter):
        problem = FitProblem(priors=np.array([0.1, 0.3]), targets=np.array([0.5, 0.7]),
                             family="constant")
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            lm_fit(problem, [0.5], max_iter=max_iter)

    @pytest.mark.parametrize("prior, target, message", [
        (0.1, 0.0, "targets"), (0.1, 1.5, "targets"), (0.1, np.nan, "targets"),
        (0.0, 0.5, "priors"), (1.0, 0.5, "priors"), (np.nan, 0.5, "priors")])
    def test_rejects_values_outside_their_interval(self, prior, target, message):
        with pytest.raises(ValueError, match=f"{message} must lie in"):
            FitProblem(priors=np.array([0.2, prior]), targets=np.array([0.5, target]),
                       family="constant")

    def test_rejects_empty_problem(self):
        with pytest.raises(ValueError, match="priors and targets must have equal, nonzero "
                                             "length"):
            FitProblem(priors=np.array([]), targets=np.array([]), family="constant")

    def test_boundary_targets_get_zero_weight(self):
        priors = np.array([0.01, 0.05, 0.2])
        targets = np.array([1e-6, 0.5, 0.9])  # first is a clamp artifact
        problem = FitProblem(priors=priors, targets=targets, family="constant")
        assert problem.effective_weights().tolist() == [0.0, 1.0, 1.0]

    def test_noisy_self_consistency(self):
        # fitting the generating family with ~1% multiplicative noise recovers
        # the parameters within 5% relative error
        rng = np.random.default_rng(42)
        priors = rng.uniform(1e-3, 0.5, 200)
        true = {"beta": 1.8, "gamma": 0.45}
        clean = (true["beta"] * priors) ** true["gamma"]
        noisy = np.clip(clean * (1 + rng.normal(0, 0.01, 200)), 1e-5, 1.0)
        problem = FitProblem(priors=priors, targets=noisy, family="power_law")
        result = fit_family(problem)
        assert result.params["gamma"] == pytest.approx(true["gamma"], rel=0.05)
        assert result.params["beta"] == pytest.approx(true["beta"], rel=0.05)


class TestFitFamily:
    def test_fitted_never_worse_than_best_init(self):
        rng = np.random.default_rng(9)
        priors = rng.uniform(1e-3, 0.3, 80)
        targets = np.clip((4 * priors) ** 0.5, None, 1.0)
        problem = FitProblem(priors=priors, targets=targets, family="power_law")
        result = fit_family(problem)
        pri = make_priors(priors)
        for init in FAMILY_TABLE["power_law"].inits(priors, targets):
            spec = PropensityModelSpec("power_law", init)
            assert result.mse <= fit_mse(assign(spec, pri), targets) + 1e-9

    def test_richards_fits_sigmoid_targets(self):
        rng = np.random.default_rng(13)
        priors = np.sort(rng.uniform(1e-3, 0.4, 120))
        targets = 0.1 + 0.85 / (1 + np.exp(-12 * (priors - 0.1)))
        problem = FitProblem(priors=priors, targets=targets, family="richards")
        result = fit_family(problem)
        pri = make_priors(priors)
        fitted = assign(result.spec("richards"), pri)
        assert fit_mse(fitted, targets) < 1.0

    def test_fitted_beats_unfitted_freq_sigmoid_default(self):
        # reproduces the reported MSE-table ordering: fitted families score
        # lower inverse-propensity error than the frequency-sigmoid defaults
        rng = np.random.default_rng(21)
        priors = rng.uniform(1e-3, 0.2, 150)
        targets = np.clip((priors / priors.max()) ** 0.4, 1e-4, 1.0)
        pri = make_priors(priors)
        fitted = fit_family(FitProblem(priors=priors, targets=targets,
                                       family="power_law"))
        fitted_mse = fit_mse(assign(fitted.spec("power_law"), pri), targets)
        default_spec = PropensityModelSpec("freq_sigmoid", {"a": 0.55, "b": 1.5, "n": 1000.0})
        default_mse = fit_mse(assign(default_spec, pri), targets)
        assert fitted_mse < default_mse


# an init outside the domain of each fittable family: (family, fixed, init)
OUT_OF_DOMAIN = [
    ("constant", {}, [np.nan]),                   # non-finite propensities
    ("freq_sigmoid", {"n": 10.0}, [0.5, -5.0]),   # n*prior + b <= 0
    ("power_law", {}, [-1.0, 0.5]),               # beta <= 0
    ("richards", {}, [0, 1, 1, 1, 1, 0]),         # h = 0
    ("richards", {}, [0, 1, -2, 1, 1, 1]),        # e + f*exp(-g*prior) <= 0
]


class TestFamilyDomains:
    PRIORS = np.array([0.01, 0.1, 0.4])
    TARGETS = np.array([0.2, 0.5, 0.9])

    @pytest.mark.parametrize("family, fixed", [("power_law", {"beta": -1.0}),
                                               ("freq_sigmoid", {"n": 2.5})])
    def test_no_start_inside_the_domain(self, family, fixed):
        problem = FitProblem(priors=self.PRIORS, targets=self.TARGETS, family=family,
                             fixed=fixed)
        with pytest.raises(ValueError, match="^no valid initialization for the family domain$"):
            fit_family(problem)

    def test_every_fittable_family_has_a_case(self):
        assert {family for family, _, _ in OUT_OF_DOMAIN} == set(FITTABLE)

    @pytest.mark.parametrize("family, fixed, init", OUT_OF_DOMAIN)
    def test_lm_fit_rejects_out_of_domain_init(self, family, fixed, init):
        problem = FitProblem(priors=self.PRIORS, targets=self.TARGETS, family=family,
                             fixed=fixed)
        with pytest.raises(ValueError, match="init violates the family domain"):
            lm_fit(problem, init)

    @pytest.mark.parametrize("family", ["direct", "bogus"])
    def test_unfittable_family(self, family):
        with pytest.raises(ValueError, match="cannot fit family"):
            FitProblem(priors=self.PRIORS, targets=self.TARGETS, family=family)

    @pytest.mark.parametrize("family, fixed, message", [
        ("power_law", {"n": 5.0}, r"cannot fix \['n'\]: power_law has parameters beta, gamma"),
        ("constant", {"p": 0.4}, "fixed leaves no parameter of constant free"),
    ], ids=["unknown_key", "none_free"])
    def test_rejects_fixed_the_family_cannot_take(self, family, fixed, message):
        with pytest.raises(ValueError, match=message):
            FitProblem(priors=self.PRIORS, targets=self.TARGETS, family=family, fixed=fixed)

    def test_freq_sigmoid_needs_fixed_n(self):
        with pytest.raises(ValueError, match=r"no initial value for \['n'\]"):
            FitProblem(priors=self.PRIORS, targets=self.TARGETS, family="freq_sigmoid")


class TestJacobian:
    # fits whose first Jacobian has a probe outside the domain on one side, so the
    # column falls back to a one-sided difference; each FitResult is the one the
    # per-probe Jacobian loop gave, field for field
    PRIORS = np.random.default_rng(7).uniform(0.01, 0.3, 40)
    ONE_SIDED = [
        # beta = 5e-7 is below its 1e-6 step: beta - step < 0
        ("power_law", np.clip((3 * PRIORS) ** 0.5, None, 1.0), [5e-7, 0.5],
         {"beta": 2.999999999999743, "gamma": 0.49999999999999994},
         9.388732834076847e-27, 20, True),
        # g = 5e-7 with f = -e: g - step < 0 sends e + f*exp(-g*prior) below 0
        ("richards", np.clip(0.2 + 0.7 * PRIORS / PRIORS.max(), None, 1.0),
         [0.3, 1.0, 1.0, -1.0, 5e-7, -1.0],
         {"c": 0.3047363298773885, "d": 19.694610098716403, "e": 0.9999997101564913,
          "f": -1.000000289867032, "g": 5.2306613036105505e-05, "h": -2.449989637850441},
         0.43202853983712985, 48, True),
    ]

    @pytest.mark.parametrize("family, targets, init, params, mse, iterations, converged",
                             ONE_SIDED, ids=[case[0] for case in ONE_SIDED])
    def test_one_sided_fallback_reproduces_the_probe_loop(self, family, targets, init, params,
                                                          mse, iterations, converged):
        problem = FitProblem(priors=self.PRIORS, targets=targets, family=family)
        k = 0 if family == "power_law" else 4
        down, up = np.array(init), np.array(init)
        down[k] -= 1e-6
        up[k] += 1e-6
        assert problem.predict_rows(np.array([down, up]))[1].tolist() == [False, True]
        result = lm_fit(problem, init)
        assert result.params == params
        assert (result.mse, result.iterations, result.converged) == (mse, iterations, converged)

    @pytest.mark.parametrize("family", FITTABLE)
    def test_one_batched_evaluation_per_iteration(self, monkeypatch, family):
        # every iteration evaluates its 2p probes in one call; every other call
        # (the start, each candidate step) is one parameter set
        rng = np.random.default_rng(4)
        priors = rng.uniform(1e-3, 0.4, 50)
        targets = np.clip((2 * priors) ** 0.4, None, 1.0)
        fixed = {"n": 1000.0} if family == "freq_sigmoid" else {}
        problem = FitProblem(priors=priors, targets=targets, family=family, fixed=fixed)
        init = [FAMILY_TABLE[family].inits(priors, targets)[0][n] for n in problem.free_names]
        rows = []
        original = FAMILY_TABLE[family]

        def counted(priors, **params):
            rows.append(max(len(np.atleast_1d(v)) for v in params.values()))
            return original.fn(priors, **params)

        monkeypatch.setitem(FAMILY_TABLE, family, dataclasses.replace(original, fn=counted))
        result = lm_fit(problem, init, max_iter=5)
        p = len(problem.free_names)
        assert rows.count(2 * p) == result.iterations >= 1
        assert rows.count(1) == len(rows) - result.iterations


def _bits(result) -> str:
    """A FitResult as text that tells apart any two bit patterns of its floats."""
    return repr(result and (result.params, result.mse, result.iterations, result.converged))


def _counting(monkeypatch, family) -> list:
    """Patch ``family``'s evaluation to record the rows of every call it makes."""
    rows = []
    original = FAMILY_TABLE[family]

    def counted(priors, **params):
        rows.append(max(len(np.atleast_1d(v)) for v in params.values()))
        return original.fn(priors, **params)

    monkeypatch.setitem(FAMILY_TABLE, family, dataclasses.replace(original, fn=counted))
    return rows


def _edge_start(family, priors, fixed):
    """A start and the index of its parameter whose down probe leaves the domain
    while its up probe stays inside (a one-sided Jacobian column), or None for a
    family without a domain edge."""
    if family == "power_law":
        return [5e-7, 0.5], 0                        # beta - 1e-6 < 0
    if family == "richards":                         # g - 1e-6 < 0: e + f*exp(-g*prior) < 0
        return [0.3, 1.0, 1.0, -1.0, 5e-7, -1.0], 4
    if family == "freq_sigmoid":  # b - its step sends n*prior + b below 0 at the least prior
        edge = -fixed["n"] * priors.min()
        return [1.0, edge + 0.5e-6 * max(abs(edge), 1.0)], 1
    return None


# a start outside each family's domain (for freq_sigmoid, at n <= 1000)
OUTSIDE = {"constant": [np.nan], "freq_sigmoid": [1.0, -1001.0], "power_law": [-1.0, 0.5],
           "richards": [0, 1, 1, 1, 1, 0]}


class TestLockstep:
    """``fit_family`` runs its starts in lockstep; each start must give, bit for bit,
    the result of the one-start LM loop from that start alone."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(FITTABLE),
           m=st.integers(2, 40), max_iter=st.sampled_from([1, 2, 5, 200]))
    def test_each_start_equals_the_one_start_loop(self, seed, family, m, max_iter):
        rng = np.random.default_rng(seed)
        priors = rng.uniform(1e-3, 0.5, m)
        if rng.random() < 0.5:
            targets = np.clip(rng.uniform(0.5, 4) * priors ** rng.uniform(0.1, 1.0)
                              * (1 + rng.normal(0, 0.05, m)), P_MIN, 1.0)
        else:
            targets = rng.uniform(P_MIN, 1.0, m)
        targets[rng.random(m) < 0.1] = P_MIN  # clamp artifacts, weighted 0
        fixed = {"n": float(rng.integers(10, 1000))} if family == "freq_sigmoid" else {}
        problem = FitProblem(priors=priors, targets=targets, family=family, fixed=fixed)
        grid = [[g[n] for n in problem.free_names]
                for g in FAMILY_TABLE[family].inits(priors, targets)]
        inits = grid + [list(np.array(g) * rng.uniform(0.5, 2.0, len(g))) for g in grid[:2]]
        inits.append(OUTSIDE[family])
        edge = _edge_start(family, priors, fixed)
        if edge is not None:
            start, k = edge
            probes = np.array([start, start])
            probes[:, k] += np.array([-1.0, 1.0]) * 1e-6 * max(abs(start[k]), 1.0)
            assert problem.predict_rows(probes)[1].tolist() == [False, True]
            inits.append(start)
        inits = np.array(inits, dtype=np.float64)
        rng.shuffle(inits)

        expected = []
        for init in inits:
            try:
                expected.append(lm_fit_one_start(problem, init, max_iter))
            except ValueError:
                expected.append(None)
        assert None in expected
        got = _lm_starts(problem, inits, max_iter)
        assert [_bits(r) for r in got] == [_bits(r) for r in expected]

    @pytest.mark.parametrize("family", FITTABLE)
    def test_one_family_call_per_round_and_rung(self, monkeypatch, family):
        # fit_family makes one call for its starts, then per round one call for the
        # 2p Jacobian probes of every running start, then per damping-ladder rung
        # one call for the candidates of the starts still searching; each start's
        # rounds and rungs are those of the one-start loop from it alone
        rng = np.random.default_rng(4)
        priors = rng.uniform(1e-3, 0.4, 50)
        targets = 0.1 + 0.85 / (1 + np.exp(-12 * (priors - 0.1)))
        fixed = {"n": 1000.0} if family == "freq_sigmoid" else {}
        problem = FitProblem(priors=priors, targets=targets, family=family, fixed=fixed)
        p = len(problem.free_names)
        rows = _counting(monkeypatch, family)

        rungs = []  # per start, the candidate evaluations of each of its rounds
        for params in FAMILY_TABLE[family].inits(priors, targets):
            del rows[:]
            lm_fit_one_start(problem, [params[n] for n in problem.free_names])
            assert rows[0] == 1 and set(rows[1:]) <= {1, 2 * p}
            rounds = "".join("J" if r == 2 * p else "c" for r in rows[1:]).split("J")[1:]
            rungs.append([len(r) for r in rounds])
        assert len({len(r) for r in rungs}) > 1  # the starts finish in different rounds

        expected = [len(rungs)]
        for t in range(max(map(len, rungs))):
            running = [r[t] for r in rungs if len(r) > t]
            expected.append(2 * p * len(running))
            expected += [sum(c > j for c in running) for j in range(max(running))]
        del rows[:]
        fit_family(problem)
        assert rows == expected

    @pytest.mark.parametrize("family", FITTABLE)
    def test_singular_systems_raise_the_damping_without_a_call(self, monkeypatch, family):
        # a damped system is singular when the xor of its bit patterns is 0 mod 3: a
        # rule on the system alone, so the lockstep fit and the one-start loop see
        # the same singular systems whatever order they solve them in
        solve = np.linalg.solve
        solved = []  # per system, whether it was solved

        def sometimes_singular(M, b):
            solved.append(int(np.bitwise_xor.reduce(M.view(np.uint64), axis=None)) % 3 != 0)
            if not solved[-1]:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(M, b)

        monkeypatch.setattr(np.linalg, "solve", sometimes_singular)
        rng = np.random.default_rng(4)
        priors = rng.uniform(1e-3, 0.4, 50)
        targets = 0.1 + 0.85 / (1 + np.exp(-12 * (priors - 0.1)))
        fixed = {"n": 1000.0} if family == "freq_sigmoid" else {}
        problem = FitProblem(priors=priors, targets=targets, family=family, fixed=fixed)
        inits = np.array([[g[n] for n in problem.free_names]
                          for g in FAMILY_TABLE[family].inits(priors, targets)])
        expected = [lm_fit_one_start(problem, init) for init in inits]
        rows = _counting(monkeypatch, family)
        del solved[:]
        got = _lm_starts(problem, inits, 200)
        assert [_bits(r) for r in got] == [_bits(r) for r in expected]
        assert solved.count(False) > 0
        # a row per start, 2p per round of each start, and one per solved system
        p = len(problem.free_names)
        assert sum(rows) == (len(inits) + 2 * p * sum(r.iterations for r in got)
                             + solved.count(True))


def _minpack_mse(problem) -> float:
    """The least mse MINPACK's Levenberg-Marquardt (``least_squares(method="lm")``)
    reaches from ``fit_family``'s starts inside the domain, on the residuals
    ``fit_family`` minimises; a point outside the domain costs 1e6 per label."""
    sw = np.sqrt(problem.effective_weights())
    inv_targets = 1.0 / problem.targets

    def residuals(theta):
        pred, ok = problem.predict_rows(theta[None])
        return sw * (inv_targets - 1.0 / pred[0]) if ok[0] else np.full(len(sw), 1e6)

    best = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # probes outside the domain
        for params in FAMILY_TABLE[problem.family].inits(problem.priors, problem.targets):
            start = np.array([params[n] for n in problem.free_names], dtype=np.float64)
            if problem.predict_rows(start[None])[1][0]:
                r = residuals(least_squares(residuals, start, method="lm").x)
                best = min(best, float(r @ r) / problem.effective_weights().sum())
    return best


def _recovery_problems(monkeypatch, seeds) -> list:
    """The FitProblems ``run_propensity_recovery`` fits at ``seeds``, at the
    benchmark's recovery shape."""
    problems, fit = [], experiments.fit_family
    monkeypatch.setattr(experiments, "fit_family",
                        lambda problem: problems.append(problem) or fit(problem))
    shape = {"m": 100, "dim": 4, "n_train": 2000, "n_val": 1000, "n_test": 100,
             "r_min": 0.2, "r_max": 0.5}
    experiments.run_propensity_recovery(experiments.ExperimentConfig(sections={
        "experiment": {"seeds": ",".join(map(str, seeds))},
        "data": {k: str(v) for k, v in shape.items()},
        "propensity.noise": {"family": "power_law", "beta": "auto", "gamma": "0.5"}}))
    return problems


class TestAgainstMinpack:
    """``fit_family`` against a Levenberg-Marquardt written elsewhere: scipy's
    MINPACK wrapper, from the same five starts on the same residuals.

    On the recovery problems of the three cheap families ``fit_family``'s mse
    exceeds MINPACK's by at most ``REL`` of it plus ``ABS``; measured, they
    agreed to 1e-9 on seeds 0-9.  On random problems it does not always: of
    3000 noisy power-law problems about 1% of the freq_sigmoid and power_law
    fits ended more than ``REL`` above MINPACK, most at the round cap (up to
    1.3% above, and more than twice MINPACK's mse at m = 2) and two claiming
    convergence 8% and 16% above.  So the random problems bound that share.
    """

    REL, ABS = 1e-5, 1e-9

    def within(self, problem):
        result = fit_family(problem)
        return result, result.mse <= _minpack_mse(problem) * (1 + self.REL) + self.ABS

    def test_random_problems(self):
        # targets a noisy power of the priors, with clamp artifacts weighted 0
        above = []
        for seed in range(60):
            rng = np.random.default_rng(seed)
            family = ("constant", "power_law", "freq_sigmoid")[seed % 3]
            m = int(rng.integers(2, 61))
            priors = rng.uniform(1e-3, 0.5, m)
            targets = np.clip(rng.uniform(0.5, 4) * priors ** rng.uniform(0.1, 1.0)
                              * (1 + rng.normal(0, 0.05, m)), P_MIN, 1.0)
            targets[rng.random(m) < 0.1] = P_MIN
            fixed = {"n": float(rng.integers(10, 1000))} if family == "freq_sigmoid" else {}
            result, within = self.within(FitProblem(priors=priors, targets=targets,
                                                    family=family, fixed=fixed))
            if not within:
                above.append((seed, result))
        assert len(above) <= 3, above

    def test_recovery_problems(self, monkeypatch, record_property):
        problems = _recovery_problems(monkeypatch, [0, 1, 2])
        assert [problem.family for problem in problems] == list(FITTABLE) * 3
        for problem in problems:
            if problem.family != "richards":
                result, within = self.within(problem)
                assert within, (problem.family, result)
        # richards stops at its round cap unconverged, so its gap to MINPACK is
        # recorded, not bounded: 1.8e-4 of MINPACK's mse at seed 0
        richards = problems[FITTABLE.index("richards")]
        ours, minpack = fit_family(richards).mse, _minpack_mse(richards)
        record_property("richards_relative_gap", (ours - minpack) / minpack)
        assert np.isfinite(ours) and np.isfinite(minpack)
