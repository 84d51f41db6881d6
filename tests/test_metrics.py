import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craft.data import Dataset, ScalerParams, apply_scaler, fit_scaler
from craft.metrics import evaluate, percentage_bend_correlation, rmse
from craft.network import MlpSpec, RegressorParams, init_params


def reference_pbcor(x, y, beta=0.2):
    """Independent scalar reimplementation of the winsorized bend correlation."""

    def bend_location(v):
        med = statistics.median(v)
        w = sorted(abs(vi - med) for vi in v)
        m = math.floor((1.0 - beta) * len(v) + 0.5)
        omega = w[m - 1]
        psi = [(vi - med) / omega for vi in v]
        i1 = sum(1 for p in psi if p < -1.0)
        i2 = sum(1 for p in psi if p > 1.0)
        core = sum(vi for vi, p in zip(v, psi) if -1.0 <= p <= 1.0)
        return (core + omega * (i2 - i1)) / (len(v) - i1 - i2), omega

    tx, ox = bend_location(list(x))
    ty, oy = bend_location(list(y))
    a = [min(1.0, max(-1.0, (vi - tx) / ox)) for vi in x]
    b = [min(1.0, max(-1.0, (vi - ty) / oy)) for vi in y]
    num = sum(ai * bi for ai, bi in zip(a, b))
    return num / math.sqrt(sum(ai * ai for ai in a) * sum(bi * bi for bi in b))


class TestRmse:
    def test_identical_vectors(self):
        assert rmse(np.arange(5.0), np.arange(5.0)) == 0.0

    def test_hand_value(self):
        assert abs(rmse([0.0, 0.0], [3.0, 4.0]) - math.sqrt(12.5)) < 1e-15

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_joint_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=20)
        t = rng.normal(size=20)
        perm = rng.permutation(20)
        assert abs(rmse(p, t) - rmse(p[perm], t[perm])) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])


class TestPercentageBend:
    def test_increasing_affine_is_one(self):
        x = np.linspace(-3, 5, 25)
        assert abs(percentage_bend_correlation(x, 2 * x + 1) - 1.0) < 1e-12

    def test_negation_is_minus_one(self):
        x = np.random.default_rng(0).normal(size=30)
        assert abs(percentage_bend_correlation(x, -x) + 1.0) < 1e-12

    def test_matches_reference_on_seeded_pairs(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 60))
            x = rng.normal(size=n)
            y = 0.5 * x + rng.standard_t(3, size=n)
            ours = percentage_bend_correlation(x, y)
            assert abs(ours - reference_pbcor(x, y)) < 1e-10

    def test_self_correlation_is_one(self):
        x = np.random.default_rng(3).normal(size=40)
        assert abs(percentage_bend_correlation(x, x) - 1.0) < 1e-12

    def test_affine_invariance_and_sign_flip(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        base = percentage_bend_correlation(x, y)
        assert abs(percentage_bend_correlation(3.0 * x + 2.0, y) - base) < 1e-10
        assert abs(percentage_bend_correlation(-3.0 * x + 2.0, y) + base) < 1e-10

    def test_always_in_unit_interval(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x = rng.standard_cauchy(size=15)
            y = rng.standard_cauchy(size=15)
            r = percentage_bend_correlation(x, y)
            assert -1.0 <= r <= 1.0

    def test_degenerate_spread_errors(self):
        x = np.zeros(10)
        x[-1] = 1.0  # more than 80% ties at the median
        with pytest.raises(ValueError, match="degenerate spread"):
            percentage_bend_correlation(x, np.arange(10.0))

    def test_needs_three_pairs(self):
        with pytest.raises(ValueError):
            percentage_bend_correlation([1.0, 2.0], [1.0, 2.0])


class TestEvaluate:
    def _perfect_setup(self):
        # scalar identity model in scaled space predicts labels exactly
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 1))
        train = Dataset(X, X[:, 0], np.ones(40, dtype=bool))
        scaler = fit_scaler(train)
        scaled = apply_scaler(train, scaler)
        # fit y_scaled = w * x_scaled + b exactly (both are affine in x)
        w, b = np.polyfit(scaled.features[:, 0], scaled.labels, 1)
        params = RegressorParams.from_blocks(MlpSpec((1, 1)), [np.array([[w]])], [np.array([b])])
        return params, train, scaler

    def test_perfect_predictor(self):
        params, train, scaler = self._perfect_setup()
        pair = evaluate(params, train, scaler)
        assert pair.rmse < 1e-10
        assert abs(pair.pbcor - 1.0) < 1e-10

    def test_constant_predictor_reports_nan_pbcor(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 2))
        test = Dataset(X, rng.normal(size=20), np.ones(20, dtype=bool))
        scaler = ScalerParams(np.zeros(2), np.ones(2), -1.0, 1.0)
        spec = MlpSpec((2, 1))
        params = RegressorParams.from_blocks(spec, [np.zeros((2, 1))], [np.array([0.25])])
        pair = evaluate(params, test, scaler)
        assert pair.pbcor is None
        assert pair.rmse >= 0.0

    def test_batched_equals_whole_set(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 3))
        test = Dataset(X, rng.normal(size=30), np.ones(30, dtype=bool))
        scaler = ScalerParams(np.zeros(3), np.ones(3), -1.0, 1.0)
        params = init_params(MlpSpec((3, 8, 1)), seed=5)
        whole = evaluate(params, test, scaler)
        halves = [evaluate(params, test.subset(np.arange(0, 15)), scaler),
                  evaluate(params, test.subset(np.arange(15, 30)), scaler)]
        combined = math.sqrt((halves[0].rmse ** 2 * 15 + halves[1].rmse ** 2 * 15) / 30)
        assert abs(whole.rmse - combined) < 1e-12

    def test_requires_fully_labeled(self):
        X = np.ones((3, 1))
        test = Dataset(X, np.array([1.0, 2.0, np.nan]), np.array([True, True, False]))
        scaler = ScalerParams(np.zeros(1), np.ones(1), 0.0, 1.0)
        params = init_params(MlpSpec((1, 1)), 0)
        with pytest.raises(ValueError, match="fully labeled"):
            evaluate(params, test, scaler)


@pytest.mark.parametrize("x,y", [
    ([1.0, 2.0, 3.0], [1.0, 2.0]),
    ([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]]),
], ids=["unequal-lengths", "matrices"])
def test_each_input_check_fails_with_its_message(x, y):
    with pytest.raises(ValueError, match="^x and y must be equal-length vectors$"):
        percentage_bend_correlation(x, y)
