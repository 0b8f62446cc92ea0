import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xproplab.data import LabelPriors
from xproplab.experiments import ExperimentConfig
from xproplab.propensity import (FAMILY_TABLE, DegenerateRegimeWarning, P_MIN,
                                 FITTABLE, PropensityAssignment, PropensityModelSpec, assign,
                                 _row_power, direct_estimate, eval_freq_sigmoid,
                                 eval_power, eval_richards)

from _data import row_power_per_row


def priors_of(p):
    p = np.asarray(p, dtype=np.float64)
    return LabelPriors(counts=(p * 100).astype(int), priors=p)


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

    def test_zero_exponent_closed_form(self):
        # a = 0 collapses the model to 1 / ln(n)
        for n in (100, 1000):
            assert eval_freq_sigmoid(0.01, n, 0.0, 1.0) == pytest.approx(1.0 / np.log(n))

    def test_degenerate_n_warns_and_clamps(self):
        with pytest.warns(DegenerateRegimeWarning):
            v = eval_freq_sigmoid(0.5, 2, a=0.55, b=1.5)
        assert P_MIN <= v <= 1.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            eval_freq_sigmoid(0.5, 0, a=0.5, b=0.4)
        with pytest.raises(ValueError):
            eval_freq_sigmoid(1e-9, 10, a=0.5, b=-1.0)

    def test_b_below_minus_one_needs_an_integral_a(self):
        # (b+1)^a is not real for b < -1 and a non-integral a
        with pytest.raises(ValueError, match=r"^b must be >= -1 unless a is an integer, "
                                             r"got b=-1\.5$"):
            eval_freq_sigmoid(0.5, 1000, 0.5, -1.5)
        assert P_MIN <= eval_freq_sigmoid(0.5, 1000, 1.0, -1.5) <= 1.0
        assert P_MIN <= eval_freq_sigmoid(0.5, 1000, 2.0, -1.5) <= 1.0

    @pytest.mark.parametrize("n", [2.9, 1000.5, np.inf, np.nan])
    def test_non_integral_n_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            eval_freq_sigmoid(0.01, n, a=0.55, b=1.5)

    def test_integral_float_n_is_the_int(self):
        priors = np.array([1e-4, 0.01, 0.3])
        assert np.array_equal(eval_freq_sigmoid(priors, 1000.0, 0.55, 1.5),
                              eval_freq_sigmoid(priors, 1000, 0.55, 1.5))

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

    def test_rejects_zero_validation_prior(self):
        val = LabelPriors(counts=np.array([0, 3]), priors=np.array([0.0, 0.3]))
        with pytest.raises(ValueError, match=r"^validation priors must be positive \(use "
                                             r"smoothing\)$"):
            direct_estimate(priors_of([0.1, 0.2]), val, 1.0)

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
    lines = [f"family = {spec.family}"] + [
        f"{name} = " + ",".join(repr(float(v)) for v in np.ravel(value))
        for name, value in spec.params.items()]
    config = ExperimentConfig.from_text("[propensity.noise]\n" + "\n".join(lines) + "\n")
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


class TestAssignmentType:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PropensityAssignment(np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            PropensityAssignment(np.array([0.0, 0.5]))
        with pytest.raises(ValueError, match="1-D"):
            PropensityAssignment(np.full((2, 2), 0.5))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PropensityAssignment(np.array([np.nan, 0.5]))


def floats(low, high):
    return st.floats(low, high, allow_nan=False)


# one parameter set per fittable family.  The exponents gamma and 1/h take the
# values numpy raises by a fast path (0.5, 2, -1) and 1; beta <= 0, e + f*exp(-g*prior)
# <= 0, h = 0, n*prior + b <= 0, b < -1 with a non-integral a and a non-integral
# n leave the domain, p = nan and n < 3 give non-finite or degenerate values, and
# f = 0 drops a term
PARAMETER_SETS = {
    "constant": st.fixed_dictionaries({"p": floats(-0.5, 1.5) | st.just(np.nan)}),
    "freq_sigmoid": st.fixed_dictionaries({
        "a": st.sampled_from([-1.0, 0.0, 1.0, 2.0]) | floats(-1.0, 2.0),
        "b": floats(-2.0, 6.0),
        "n": st.sampled_from([1000.0, 50.0, 3.0, 2.0, 1.0, 2.5])}),
    "power_law": st.fixed_dictionaries({
        "beta": st.sampled_from([-1.0, 0.0]) | floats(1e-3, 10.0),
        "gamma": st.sampled_from([0.5, 1.0, 2.0, -1.0]) | floats(-3.0, 3.0)}),
    "richards": st.fixed_dictionaries({
        "c": floats(-0.5, 0.5), "d": floats(0.5, 1.5), "e": floats(-1.0, 2.0),
        "f": st.just(0.0) | floats(-2.0, 3.0), "g": floats(-20.0, 20.0),
        "h": st.sampled_from([2.0, 1.0, 0.5, -1.0, 0.0]) | floats(-3.0, 3.0)}),
}


class TestBatchedEvaluation:
    """``Family.fn`` evaluates K parameter sets in one call; each row must be
    bit-identical to ``Family.fn`` at that set alone, and the mask must say
    exactly which sets evaluate without a ``ValueError`` to finite values."""

    def test_every_fittable_family_has_a_strategy(self):
        assert set(PARAMETER_SETS) == set(FITTABLE)

    @pytest.mark.parametrize("shared", ["a", "b"])
    def test_a_parameter_shared_by_every_row(self, shared):
        # a freq_sigmoid fit with b fixed evaluates K values of a against one b, so
        # (b + 1)^a broadcasts its operands
        rng = np.random.default_rng(11)
        priors = rng.uniform(1e-4, 0.9, 40)
        sets = {"a": rng.uniform(0.1, 2.0, 6), "b": rng.uniform(-0.5, 5.0, 6)}
        sets[shared] = sets[shared][0]
        values, ok = FAMILY_TABLE["freq_sigmoid"].fn(priors, **sets, n=1000.0)
        assert values.shape == (6, 40) and ok.all()
        for k in range(6):
            alone = eval_freq_sigmoid(priors, n=1000.0, **{name: np.ravel(v)[k % np.size(v)]
                                                          for name, v in sets.items()})
            assert values[k].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("family", FITTABLE)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_equal_one_set_at_a_time(self, family, data):
        sets = data.draw(st.lists(PARAMETER_SETS[family], min_size=2, max_size=8))
        priors = np.array(data.draw(st.lists(floats(1e-4, 0.99), min_size=1, max_size=60)))
        table = FAMILY_TABLE[family]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateRegimeWarning)
            values, ok = table.fn(priors, **{name: np.array([s[name] for s in sets])
                                             for name in table.params})
            assert values.shape == (len(sets), len(priors)) and ok.shape == (len(sets),)
            for k, params in enumerate(sets):
                try:
                    alone = table.fn(priors, **params)
                except ValueError:
                    assert not ok[k], params
                    continue
                assert ok[k] == np.all(np.isfinite(alone)), params
                if ok[k]:
                    assert values[k].tobytes() == alone.tobytes(), params


class TestRowPower:
    """``_row_power`` raises every row in one ``np.power`` call; each row must
    equal, bit for bit, the per-row loop it replaced, whose exponents 0.5, 2
    and -1 take numpy's scalar fast paths."""

    SPECIAL = [0.5, 2.0, -1.0, 0.0, 1.0, 3.0, -2.0, 1 / 3]

    @pytest.mark.parametrize("shared_base", [True, False], ids=["one_base_row", "k_base_rows"])
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 17, 100])
    def test_equals_the_row_loop(self, m, shared_base):
        rng = np.random.default_rng(m)
        special = np.array(self.SPECIAL)
        ex = np.concatenate([special, np.nextafter(special, np.inf),
                             np.nextafter(special, -np.inf), rng.uniform(-3.0, 3.0, 8)])
        rng.shuffle(ex)
        base = np.exp(rng.uniform(-20.0, 20.0, (1 if shared_base else len(ex), m)))
        got = _row_power(base, ex[:, None])
        expected = row_power_per_row(base, ex[:, None])
        assert got.shape == expected.shape == (len(ex), m)
        assert got.tobytes() == expected.tobytes()
