import warnings

import numpy as np
import pytest

from xproplab.data import LabelPriors
from xproplab.experiments import ExperimentConfig
from xproplab.propensity import (FAMILY_TABLE, DegenerateRegimeWarning, P_MIN,
                                 PropensityAssignment, PropensityModelSpec,
                                 adjust_probability, assign, direct_estimate,
                                 eval_freq_sigmoid, eval_power, eval_richards,
                                 scaling_diagnostic)


def priors_of(p):
    p = np.asarray(p, dtype=np.float64)
    return LabelPriors(m=len(p), counts=(p * 100).astype(int), priors=p, smoothing=1.0)


class TestFreqSigmoid:
    def test_scalar_value(self):
        # frozen from a 50-digit mpmath evaluation of the closed form
        assert eval_freq_sigmoid(1e-4, 10**6, a=0.55, b=1.5) == pytest.approx(
            0.374353784311, abs=1e-9)

    def test_limit_to_one(self):
        for a, b in [(0.5, 0.4), (0.6, 2.6), (0.55, 1.5)]:
            assert eval_freq_sigmoid(1e-4, 10**15, a=a, b=b) > 0.999

    def test_monotone_in_n(self):
        values = [eval_freq_sigmoid(0.01, n, 0.55, 1.5) for n in (10**3, 10**6, 10**9)]
        assert values[0] < values[1] < values[2]

    def test_degenerate_n_warns_and_clamps(self):
        with pytest.warns(DegenerateRegimeWarning):
            v = eval_freq_sigmoid(0.5, 2, a=0.55, b=1.5)
        assert P_MIN <= v <= 1.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            eval_freq_sigmoid(0.5, 0, a=0.5, b=0.4)
        with pytest.raises(ValueError):
            eval_freq_sigmoid(1e-9, 10, a=0.5, b=-1.0)

    def test_clamped_codomain(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = eval_freq_sigmoid(rng.uniform(1e-8, 0.99), int(rng.integers(3, 10**9)),
                         rng.uniform(0.01, 2), rng.uniform(0, 5))
            assert P_MIN <= v <= 1.0


class TestPower:
    def test_identity_exponent(self):
        assert eval_power(0.3, beta=1.0, gamma=1.0) == pytest.approx(0.3)

    def test_zero_exponent(self):
        assert eval_power(0.42, beta=3.0, gamma=0.0) == pytest.approx(1.0)

    def test_hand_value(self):
        assert eval_power(0.01, beta=25.0, gamma=0.5) == pytest.approx(0.5)

    def test_equals_prior_when_unit_params(self):
        for prior in (1e-5, 0.01, 0.9):
            assert eval_power(prior, 1.0, 1.0) == pytest.approx(prior)

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            eval_power(0.1, beta=-1.0, gamma=0.5)


class TestRichards:
    def test_degenerate_plateau(self):
        assert eval_richards(0.37, c=0.7, d=0.7, e=1.0, f=2.0, g=3.0,
                             h=1.0) == pytest.approx(0.7)

    def test_zero_decay_term(self):
        assert eval_richards(0.5, c=0.0, d=1.0, e=1.0, f=0.0, g=1.0,
                             h=1.0) == pytest.approx(1.0)

    def test_hand_value(self):
        assert eval_richards(0.1, c=0.0, d=1.0, e=1.0, f=1.0, g=0.0,
                             h=1.0) == pytest.approx(0.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eval_richards(0.1, c=0, d=1, e=1, f=1, g=1, h=0)
        with pytest.raises(ValueError):
            eval_richards(0.1, c=0, d=1, e=-5, f=1, g=1, h=2)

    def test_extreme_exponent_is_silent(self):
        # base**(1/h) underflows to 0 at h = 1e-4; the quotient is clamped to 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = eval_richards([0.01, 0.5], c=0, d=1, e=0.5, f=0.1, g=1, h=1e-4)
            # exp(-g*prior) overflows to inf at g = -2000; the quotient is clamped to P_MIN
            tail = eval_richards([0.5, 0.6], c=0, d=1, e=1, f=1, g=-2000, h=1)
        assert out.tolist() == [1.0, 1.0]
        assert tail.tolist() == [P_MIN, P_MIN]

    def test_zero_f_drops_the_overflowing_term(self):
        # exp(-g*prior) overflows to inf at g = -2000; with f = 0 the term is 0, not nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = eval_richards([0.5], c=0, d=1, e=1, f=0, g=-2000, h=1)
        assert out.tolist() == [1.0]

    def test_nan_base_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            eval_richards([0.5], c=0, d=1, e=np.nan, f=1, g=1, h=1)


class TestAdjustProbability:
    def test_formula(self):
        assert adjust_probability(0.2, 0.5) == pytest.approx(0.4)

    def test_identity_at_full_propensity(self):
        assert adjust_probability(0.73, 1.0) == pytest.approx(0.73)

    def test_clamped_to_one(self):
        assert adjust_probability(0.8, 0.5) == 1.0

    def test_inverse_pair(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            eta = rng.uniform(0, 1)
            p = rng.uniform(0.01, 1)
            assert adjust_probability(eta * p, p) == pytest.approx(eta, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.5, np.nan])
    def test_rejects_propensity_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match="propensity must lie in"):
            adjust_probability(0.2, p)


class TestDirectEstimate:
    def test_hand_ratio(self):
        tr = priors_of([0.005])
        val = priors_of([0.0002])
        est = direct_estimate(tr, val, [0.01])
        assert est.p[0] == pytest.approx(0.25)

    def test_no_bias_detected(self):
        tr = priors_of([0.3, 0.01])
        est = direct_estimate(tr, tr, 1.0)
        assert np.allclose(est.p, 1.0)

    def test_mismatched_m(self):
        with pytest.raises(ValueError):
            direct_estimate(priors_of([0.1]), priors_of([0.1, 0.2]), 1.0)

    @pytest.mark.parametrize("pc", [0.0, 1.5, np.nan])
    def test_rejects_controlled_propensity_outside_unit_interval(self, pc):
        with pytest.raises(ValueError, match="controlled propensity must lie in"):
            direct_estimate(priors_of([0.1]), priors_of([0.2]), pc)

    def test_recovers_injected_propensity_in_expectation(self):
        # binomial oracle: biased counts ~ Bin(n*prior, p*), so the mean of the
        # estimate over trials must sit within 3 standard errors of p*
        rng = np.random.default_rng(7)
        n, prior, p_star, trials = 4000, 0.25, 0.6, 200
        estimates = []
        for _ in range(trials):
            clean = rng.binomial(n, prior)
            observed = rng.binomial(clean, p_star)
            pi_tr = observed / n
            pi_val = prior
            estimates.append(pi_tr * 1.0 / pi_val)
        mean = np.mean(estimates)
        se = np.std(estimates, ddof=1) / np.sqrt(trials)
        assert abs(mean - p_star) < 3 * se + 1e-12


class TestAssign:
    def test_constant_broadcast(self):
        spec = PropensityModelSpec("constant", {"p": 1.0})
        out = assign(spec, priors_of([0.1, 0.2, 0.3]))
        assert np.allclose(out.p, 1.0)

    def test_freq_sigmoid_pointwise(self):
        spec = PropensityModelSpec("freq_sigmoid", {"a": 0.55, "b": 1.5, "n": 10**6})
        pri = priors_of([1e-4, 1e-3])
        out = assign(spec, pri)
        for j, prior in enumerate(pri.priors):
            assert out.p[j] == pytest.approx(eval_freq_sigmoid(prior, 10**6, 0.55, 1.5))

    def test_power_law_head_label_saturates(self):
        pri = priors_of([0.04, 0.2, 0.01])
        spec = PropensityModelSpec("power_law",
                                   {"beta": 1.0 / pri.priors.max(), "gamma": 0.7})
        out = assign(spec, pri)
        assert out.p[1] == pytest.approx(1.0)

    def test_direct_table(self):
        spec = PropensityModelSpec("direct", {"table": np.array([0.5, 0.25])})
        out = assign(spec, priors_of([0.1, 0.2]))
        assert out.p.tolist() == [0.5, 0.25]

    def test_all_assignments_in_codomain(self):
        pri = priors_of(np.linspace(1e-4, 0.5, 20))
        specs = [PropensityModelSpec("freq_sigmoid", {"a": 0.55, "b": 1.5, "n": 1000}),
                 PropensityModelSpec("power_law", {"beta": 2.0, "gamma": 0.5}),
                 PropensityModelSpec("richards",
                                     {"c": 0, "d": 1, "e": 1, "f": 1, "g": 10, "h": 1})]
        for spec in specs:
            out = assign(spec, pri)
            assert np.all(out.p > 0) and np.all(out.p <= 1)
            assert np.all(np.isfinite(1.0 / out.p))


# one sample per family of the table: its parameters and the eval_* call it must equal
FAMILY_SAMPLES = {
    "constant": ({"p": 0.3}, lambda pri: np.full(len(pri), 0.3)),
    "freq_sigmoid": ({"a": 0.55, "b": 1.5, "n": 1000.0},
                     lambda pri: eval_freq_sigmoid(pri, 1000, 0.55, 1.5)),
    "power_law": ({"beta": 2.0, "gamma": 0.5}, lambda pri: eval_power(pri, 2.0, 0.5)),
    "richards": ({"c": 0.1, "d": 0.9, "e": 1.0, "f": 2.0, "g": 10.0, "h": 0.5},
                 lambda pri: eval_richards(pri, 0.1, 0.9, 1.0, 2.0, 10.0, 0.5)),
    "direct": ({"table": np.array([0.5, 0.25, 1.0])}, lambda pri: np.array([0.5, 0.25, 1.0])),
}


def config_roundtrip(spec):
    """``spec`` written as a config section and read back the way a command reads it."""
    config = ExperimentConfig.from_text("[propensity.noise]\n" + spec.to_text())
    return PropensityModelSpec.from_mapping(config.sections["propensity.noise"])


class TestFamilyTable:
    @staticmethod
    def assert_same_spec(got, want):
        assert got.family == want.family and set(got.params) == set(want.params)
        for name, value in want.params.items():
            assert np.array_equal(got.params[name], value)

    @pytest.mark.parametrize("family", list(FAMILY_TABLE))
    def test_family(self, family):
        params, reference = FAMILY_SAMPLES[family]
        spec = PropensityModelSpec(family, params)
        self.assert_same_spec(config_roundtrip(spec), spec)
        pri = priors_of([0.01, 0.1, 0.4])
        assert assign(spec, pri).p.tolist() == reference(pri.priors).tolist()


class TestSpecSerialization:
    def test_roundtrip(self):
        spec = PropensityModelSpec("freq_sigmoid", {"a": 0.55, "b": 1.5, "n": 1000.0})
        again = config_roundtrip(spec)
        assert again.family == "freq_sigmoid"
        assert again.params == spec.params

    def test_direct_roundtrip(self):
        spec = PropensityModelSpec("direct", {"table": np.array([0.5, 1.0])})
        again = config_roundtrip(spec)
        assert np.allclose(again.params["table"], [0.5, 1.0])

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            PropensityModelSpec("mystery", {})


class TestScalingDiagnostic:
    def test_default_parameters_increase(self):
        diag = scaling_diagnostic(0.55, 1.5, 0.01, [10**k for k in range(3, 10)])
        assert diag.eventually_increasing
        values = [p for _, p in diag.points]
        assert values == sorted(values)
        assert diag.terminal > 0.99

    def test_zero_exponent_closed_form(self):
        # a = 0 collapses the model to 1 / ln(n)
        diag = scaling_diagnostic(0.0, 1.0, 0.01, [100, 1000])
        for n, p in diag.points:
            assert p == pytest.approx(1.0 / np.log(n))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            scaling_diagnostic(0.5, 0.4, 0.01, [1000, 10])
        with pytest.raises(ValueError):
            scaling_diagnostic(0.5, 0.4, 0.01, [2, 10])


class TestAssignmentType:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PropensityAssignment(m=2, p=np.array([0.5, 1.5]), source="test")
        with pytest.raises(ValueError):
            PropensityAssignment(m=2, p=np.array([0.0, 0.5]), source="test")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PropensityAssignment(m=2, p=np.array([np.nan, 0.5]), source="test")
