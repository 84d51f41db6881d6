import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    batch_joint_log_density,
    brute_force_scores,
    brute_force_select,
    candidate_major_joint_log_scores,
    fit_config,
    grad_check,
    gradient,
    loss_and_grad,
    reference_fit,
    reference_unsup_terms,
    stacked_loss_and_grad,
    uniform_prior,
)

from craft.data import Dataset, apply_scaler, fit_scaler, generate_synthetic, stratified_label_mask
from craft.engine import (
    BinGrid,
    CraftConfig,
    _kernel_terms,
    fit_craft,
    fit_tl,
    joint_log_scores,
    make_bin_grid,
    select_pseudo_labels,
)
from craft.harness import default_scenario
from craft.metrics import rmse
from craft.network import (
    MlpSpec,
    RegressorParams,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from craft.priors import HistogramPrior, MixturePrior, fit_histogram_prior


def identity_net():
    return RegressorParams.from_blocks(MlpSpec((1, 1)), [np.array([[1.0]])], [np.array([0.0])])


def empty_batch(d=1):
    return np.empty((0, d)), np.empty(0)


# the offset puts the lowest midpoints of a (-3, 3) grid below the exponential's origin
MIXTURE = MixturePrior([0.5, 0.3, 0.2], [-0.5, 0.8], [0.3, 0.05], [1.5], 2.5)
SCORE_PRIORS = {
    "mixture": MIXTURE,
    "histogram": fit_histogram_prior(np.random.default_rng(11).normal(size=300), 10),
    "one-bin": uniform_prior(-2.0, 2.0),
}


def tie_batches(n, rng):
    """Predictions as drawn, with the second half repeating the first, and
    rounded to one decimal: batches with exactly equal rows."""
    preds = rng.normal(size=n)
    repeated = preds.copy()
    repeated[n // 2:] = preds[: n - n // 2]
    return [preds, repeated, np.round(preds, 1)]


class TestBinGrid:
    def test_explicit_partition(self):
        grid = BinGrid(0.0, 10.0, 5)
        np.testing.assert_allclose(grid.midpoints, [1.0, 3.0, 5.0, 7.0, 9.0])
        assert grid.width == 2.0

    def test_label_built_margin_is_one_bin_width(self):
        labels = np.array([-1.0, 0.2, 1.0])
        grid = make_bin_grid(200, labels)
        w = grid.width
        assert abs(grid.lo - (-1.0 - w)) < 1e-12
        assert abs(grid.hi - (1.0 + w)) < 1e-12
        # the densest setting: width about half a percent of the label range
        assert abs(w / 2.0 - 0.005) < 1e-4

    def test_every_label_falls_inside_a_bin(self):
        rng = np.random.default_rng(0)
        labels = rng.normal(size=100)
        grid = make_bin_grid(50, labels)
        assert grid.lo < labels.min() and labels.max() < grid.hi
        idx = np.floor((labels - grid.lo) / grid.width).astype(int)
        assert (idx >= 0).all() and (idx < grid.count).all()

    def test_midpoints_strictly_increasing_equal_spacing(self):
        grid = BinGrid(-2.0, 3.0, 7)
        gaps = np.diff(grid.midpoints)
        assert (gaps > 0).all()
        np.testing.assert_allclose(gaps, grid.width, rtol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            BinGrid(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            BinGrid(0.0, 1.0, 1)
        with pytest.raises(ValueError, match="^count must be an integer"):
            BinGrid(-1.0, 1.0, 2.5)
        with pytest.raises(ValueError):
            make_bin_grid(2, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="^grid needs finite lo < hi$"):
            BinGrid(0.0, math.inf, 5)
        with pytest.raises(ValueError, match="^grid needs finite lo < hi$"):
            make_bin_grid(3, [-1e308, 1e308])


class TestJointLogScores:
    def test_singleton_batch_row_equals_prior_exactly(self):
        grid = BinGrid(-1.0, 1.0, 9)
        prior = uniform_prior(-1.0, 1.0)
        scores = joint_log_scores(np.array([0.37]), grid, prior, c=0.5)
        expected = math.log(0.5)
        assert (scores[0] == expected).all()

    def test_two_sample_frozen_values(self):
        # brute-force over bins with c=0.5, f=[-0.9, 0.9], candidates {-1, 0, 1}
        grid = BinGrid(-1.5, 1.5, 3)
        prior = uniform_prior(-1.5, 1.5)
        lp = math.log(1.0 / 3.0)
        scores = joint_log_scores(np.array([-0.9, 0.9]), grid, prior, c=0.5)
        eg = math.exp(-0.01) + math.exp(-3.61)
        expected_row0 = np.array([
            math.log(math.exp(-0.01) / eg),
            math.log(0.5),
            math.log(math.exp(-3.61) / eg),
        ])
        np.testing.assert_allclose(scores[0] - lp, expected_row0, atol=1e-12)
        # the printed reference values, rounded upstream to five decimals
        np.testing.assert_allclose(scores[0] - lp, [-0.02695, -0.69315, -3.62714], atol=5e-4)
        np.testing.assert_allclose(scores[1] - lp, expected_row0[::-1], atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        grid = BinGrid(-2.0, 2.0, 17)
        prior = fit_histogram_prior(rng.normal(size=200), 6)
        preds = rng.normal(size=12)
        ours = joint_log_scores(preds, grid, prior, c=0.5)
        np.testing.assert_array_equal(ours, brute_force_scores(preds, grid, prior, 0.5))

    @pytest.mark.parametrize("c", [0.5, 0.05])
    @pytest.mark.parametrize("prior_name", list(SCORE_PRIORS))
    def test_bitwise_equal_to_the_candidate_major_reference(self, prior_name, c):
        rng = np.random.default_rng(12)
        grid = BinGrid(-3.0, 3.0, 200)
        prior = SCORE_PRIORS[prior_name]
        for n in (1, 2, 64, 97):
            for preds in tie_batches(n, rng):
                ours = joint_log_scores(preds, grid, prior, c)
                assert np.array_equal(ours, candidate_major_joint_log_scores(preds, grid, prior, c))

    def test_constant_prior_shift_preserves_argmax(self):
        rng = np.random.default_rng(2)
        preds = rng.normal(size=10)
        grid = BinGrid(-1.0, 1.0, 21)
        narrow = uniform_prior(-1.0, 1.0)
        wide = uniform_prior(-5.0, 5.0)  # differs by a constant on the grid
        a = joint_log_scores(preds, grid, narrow, 0.5)
        b = joint_log_scores(preds, grid, wide, 0.5)
        np.testing.assert_allclose(b - a, math.log(2.0 / 10.0), atol=1e-12)
        np.testing.assert_array_equal(a.argmax(axis=1), b.argmax(axis=1))

    def test_row_softmax_is_a_distribution(self):
        rng = np.random.default_rng(3)
        preds = rng.normal(size=8)
        grid = BinGrid(-3.0, 3.0, 30)
        prior = fit_histogram_prior(rng.normal(size=100), 5)
        scores = joint_log_scores(preds, grid, prior, 0.5)
        shifted = scores - scores.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_per_candidate_batch_mass_sums_to_one(self):
        # stripping the prior, each candidate's normalized batch masses total 1
        rng = np.random.default_rng(4)
        preds = rng.normal(size=15)
        grid = BinGrid(-2.0, 2.0, 11)
        prior = uniform_prior(-2.0, 2.0)
        scores = joint_log_scores(preds, grid, prior, 0.5)
        logp = math.log(1.0 / 4.0)
        mass = np.exp(scores - logp).sum(axis=0)
        np.testing.assert_allclose(mass, 1.0, atol=1e-12)


class TestSelectPseudoLabels:
    def test_two_sample_mutual_repulsion(self):
        grid = BinGrid(-1.5, 1.5, 3)
        prior = uniform_prior(-1.5, 1.5)
        chosen = grid.midpoints[select_pseudo_labels(np.array([-0.9, 0.9]), grid, prior, c=0.5)]
        np.testing.assert_allclose(chosen, [-1.0, 1.0])

    def test_equal_predictions_follow_peaked_prior(self):
        grid = BinGrid(-1.0, 1.0, 5)
        prior = HistogramPrior(np.linspace(-1.0, 1.0, 6), [0.025, 0.025, 0.9, 0.025, 0.025])
        chosen = grid.midpoints[select_pseudo_labels(np.full(4, 0.31), grid, prior, c=0.5)]
        np.testing.assert_allclose(chosen, 0.0)

    def test_singleton_uniform_ties_resolve_to_nearest_midpoint(self):
        grid = BinGrid(-1.0, 1.0, 10)
        prior = uniform_prior(-1.0, 1.0)
        chosen = grid.midpoints[select_pseudo_labels(np.array([0.33]), grid, prior, c=0.5)]
        dists = np.abs(grid.midpoints - 0.33)
        assert chosen[0] == grid.midpoints[dists.argmin()]

    def test_vectorized_equals_brute_force(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n = int(rng.integers(1, 32))
            bins = int(rng.integers(2, 80))
            grid = BinGrid(-2.5, 2.5, bins)
            prior = uniform_prior(-3.0, 3.0)
            preds = rng.normal(size=n)
            ours = grid.midpoints[select_pseudo_labels(preds, grid, prior, c=0.5)]
            np.testing.assert_array_equal(ours, brute_force_select(preds, grid, prior, 0.5))

    def test_mixture_prior_equals_brute_force(self):
        rng = np.random.default_rng(13)
        grid = BinGrid(-3.0, 3.0, 40)
        for n in (1, 2, 12):
            for preds in tie_batches(n, rng):
                ours = grid.midpoints[select_pseudo_labels(preds, grid, MIXTURE, c=0.5)]
                np.testing.assert_array_equal(ours, brute_force_select(preds, grid, MIXTURE, 0.5))

    @pytest.mark.parametrize("preds", [[np.nan, 0.3], [np.inf, 0.3], [-np.inf], [np.inf, np.inf],
                                       [1e200, 0.3]],
                             ids=["nan", "inf", "minus-inf", "all-inf", "distance-overflows"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                                "ignore:overflow:RuntimeWarning")
    def test_non_finite_scores_fail_naming_the_predictions(self, preds):
        # a NaN prediction makes every score of its batch NaN, and an infinite one, or one
        # whose squared distances overflow, scores -inf on every bin: not the prior's fault
        grid = BinGrid(-1.0, 1.0, 5)
        message = "predictions and their squared distances to the bin grid must be finite"
        with pytest.raises(ValueError, match=f"^{message}$"):
            select_pseudo_labels(np.array(preds), grid, uniform_prior(-1.0, 1.0), 0.5)

    def test_returns_bin_indices(self):
        grid = BinGrid(0.0, 4.0, 4)
        chosen = select_pseudo_labels(np.array([0.2, 3.9]), grid, uniform_prior(0.0, 4.0), 0.5)
        assert chosen.dtype.kind == "i"
        assert chosen.tolist() == [0, 3]

    def test_positive_rescaling_of_prior_weights_is_invariant(self):
        rng = np.random.default_rng(6)
        preds = rng.normal(size=9)
        grid = BinGrid(-2.0, 2.0, 15)
        edges = np.linspace(-2.0, 2.0, 8)
        weights = rng.random(7) + 0.05
        a = select_pseudo_labels(preds, grid, HistogramPrior(edges, weights), 0.5)
        b = select_pseudo_labels(preds, grid, HistogramPrior(edges, 7.3 * weights), 0.5)
        np.testing.assert_array_equal(a, b)


# midpoints -1, 0 and 1
UNIT_GRID = BinGrid(-1.5, 1.5, 3)


class TestCraftLoss:
    def config(self, alpha=0.1, grid=UNIT_GRID):
        return fit_config(alpha=alpha, grid=grid)

    def test_alpha_zero_reduces_to_supervised(self):
        params = init_params(MlpSpec((2, 6, 1)), seed=0)
        rng = np.random.default_rng(1)
        x_l, y_l = rng.normal(size=(5, 2)), rng.normal(size=5)
        x_u = rng.normal(size=(4, 2))
        breakdown, grads = stacked_loss_and_grad(params, x_l, y_l, x_u, np.ones(4, dtype=int),
                                                 self.config(alpha=0.0))
        residual = forward_batch(params, x_l) - y_l
        assert breakdown.total == breakdown.supervised == float(residual @ residual)
        assert breakdown.unsup_quadratic == 0.0 and breakdown.unsup_contrastive == 0.0
        reference = gradient(params, x_l, 2.0 * residual)
        for (_, g1), (_, g2) in zip(grads.blocks(), reference.blocks()):
            np.testing.assert_array_equal(g1, g2)

    # the squared residuals overflow in numpy's matmul, which warns before the check raises
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_non_finite_loss_is_rejected(self):
        params = init_params(MlpSpec((2, 6, 1)), seed=0)
        x_l = np.random.default_rng(1).normal(size=(3, 2))
        with pytest.raises(ValueError, match="^non-finite training loss$"):
            stacked_loss_and_grad(params, x_l, np.full(3, 1e200), x_l[:0], None,
                                  self.config(alpha=0.0))

    def test_singleton_unsupervised_batch_is_exactly_zero(self):
        params = init_params(MlpSpec((1, 4, 1)), seed=2)
        x_l, y_l = empty_batch()
        # the one target is bin 0's midpoint, 0.4
        breakdown, grads = stacked_loss_and_grad(params, x_l, y_l, np.array([[0.7]]), np.array([0]),
                                                 self.config(alpha=1.0, grid=BinGrid(0.0, 1.6, 2)))
        assert breakdown.total == 0.0
        assert breakdown.unsup_quadratic == 0.0 and breakdown.unsup_contrastive == 0.0
        for _, g in grads.blocks():
            assert (g == 0.0).all()

    def test_two_sample_hand_value(self):
        params = identity_net()
        x_l, y_l = empty_batch()
        x_u = np.array([[-1.0], [1.0]])
        bins = np.array([0, 2])  # targets -1 and 1
        breakdown, _ = stacked_loss_and_grad(params, x_l, y_l, x_u, bins, self.config(alpha=1.0))
        per_sample = math.log(1.0 + math.exp(-4.0))
        assert abs(per_sample - 0.0181499) < 1e-7
        assert abs(breakdown.total - 2.0 * per_sample) < 1e-12
        assert abs(breakdown.total - 0.0362997) < 1e-6
        assert breakdown.unsup_quadratic == 0.0

    def test_breakdown_invariants(self):
        rng = np.random.default_rng(3)
        params = init_params(MlpSpec((3, 8, 1)), seed=3)
        grid = BinGrid(-3.0, 3.0, 60)
        for _ in range(20):
            n_l, n_u = int(rng.integers(0, 6)), int(rng.integers(1, 9))
            x_l, y_l = rng.normal(size=(n_l, 3)), rng.normal(size=n_l)
            x_u = rng.normal(size=(n_u, 3))
            n = n_l + n_u
            bins = rng.integers(0, grid.count, size=n)
            alpha = float(rng.uniform(0.01, 1.5))
            bd, _ = stacked_loss_and_grad(params, x_l, y_l, x_u, bins, self.config(alpha=alpha, grid=grid))
            assert bd.supervised >= 0.0
            assert bd.unsup_quadratic >= 0.0
            assert 0.0 <= bd.unsup_contrastive <= n * math.log(n) + 1e-12
            assert bd.total == bd.supervised + alpha * (bd.unsup_quadratic + bd.unsup_contrastive)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        params = init_params(MlpSpec((2, 8, 1)), seed=4)
        x_l, y_l = rng.normal(size=(5, 2)), rng.normal(size=5)
        x_u = rng.normal(size=(7, 2))
        grid = BinGrid(-1.5, 1.5, 30)
        prior = uniform_prior(-1.5, 1.5)
        bins = select_pseudo_labels(forward_batch(params, np.vstack([x_l, x_u])), grid, prior, 0.5)
        config = self.config(alpha=0.1, grid=grid)

        def loss_fn(p):
            bd, grads = stacked_loss_and_grad(p, x_l, y_l, x_u, bins, config)
            return bd.total, grads

        assert grad_check(loss_fn, params, h=1e-5) < 1e-4

    def test_loss_finite_for_huge_residuals(self):
        params = identity_net()
        x_u = np.array([[900.0], [-900.0], [0.0]])
        bins = np.array([0, 2, 1])  # targets -100, 100 and 0
        bd, grads = stacked_loss_and_grad(params, *empty_batch(), x_u, bins,
                                          self.config(alpha=1.0, grid=BinGrid(-150.0, 150.0, 3)))
        assert math.isfinite(bd.total)
        assert bd.unsup_quadratic <= 2.0 * 1e6 + 10.0
        for _, g in grads.blocks():
            assert np.isfinite(g).all()

    def test_both_batches_empty_errors(self):
        params = identity_net()
        with pytest.raises(ValueError, match="empty"):
            loss_and_grad(params, *empty_batch(), None, self.config())

    @pytest.mark.parametrize("name,y_sup,bins", [
        ("y_sup", np.zeros(3), None),
        ("targets", np.zeros(1), np.zeros(3, dtype=int)),
    ])
    def test_more_labels_than_rows_errors(self, name, y_sup, bins):
        x = np.array([[0.1], [0.2]])
        with pytest.raises(ValueError, match=name):
            loss_and_grad(identity_net(), x, y_sup, bins, self.config())

    @pytest.mark.parametrize("n_targets", [1, 3])
    def test_a_selection_must_cover_the_batch(self, n_targets):
        x = np.array([[0.1], [0.2]])
        message = f"^the selection has {n_targets} targets for a batch of 2 rows$"
        with pytest.raises(ValueError, match=message):
            loss_and_grad(identity_net(), x, np.zeros(1), np.zeros(n_targets, dtype=int), self.config())

    def test_unsupervised_gradient_is_map_gradient(self):
        rng = np.random.default_rng(7)
        grid = BinGrid(-2.0, 2.0, 25)
        prior = fit_histogram_prior(rng.normal(size=300), 7)
        for trial in range(5):
            params = init_params(MlpSpec((2, 6, 1)), seed=trial)
            x_u = rng.normal(size=(6, 2))
            bins = select_pseudo_labels(forward_batch(params, x_u), grid, prior, 0.5)
            alpha = 0.37
            _, unsup = stacked_loss_and_grad(params, *empty_batch(2), x_u, bins,
                                             fit_config(alpha=alpha, c=0.5, grid=grid))
            _, joint = batch_joint_log_density(params, x_u, grid.midpoints[bins], prior, 0.5)
            for (_, g1), (_, g2) in zip(unsup.blocks(), joint.blocks()):
                err = np.abs(g1 - (-alpha) * g2) / np.maximum(1.0, np.abs(alpha * g2))
                assert err.max() < 1e-10


class TestKernelTerms:
    """The self-identification term read off the selection kernel equals the
    n x n reference built from the targets, bit for bit."""

    @staticmethod
    def assert_matches_reference(preds, grid, c, bins=None):
        kernel: list = []
        chosen = select_pseudo_labels(preds, grid, SCORE_PRIORS["mixture"], c, kernel)
        bins = chosen if bins is None else bins
        ours = _kernel_terms(preds, bins, kernel)
        reference = reference_unsup_terms(preds, grid.midpoints[bins], c)
        for name, a, b in zip(("quad", "crowding", "d_f"), ours, reference):
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("c", [0.5, 0.05, 0.005])
    def test_selected_bins_of_tie_batches(self, c):
        rng = np.random.default_rng(21)
        grid = BinGrid(-3.0, 3.0, 200)
        for n in (1, 2, 64, 97):
            for preds in tie_batches(n, rng):
                self.assert_matches_reference(preds, grid, c)

    @pytest.mark.parametrize("c", [0.5, 0.05, 0.005])
    def test_many_rows_in_one_bin(self, c):
        rng = np.random.default_rng(22)
        grid = BinGrid(-3.0, 3.0, 200)
        for n in (2, 64, 97):
            preds = 0.31 + 0.01 * rng.normal(size=n)
            self.assert_matches_reference(preds, grid, c, np.full(n, 110))
            self.assert_matches_reference(preds, grid, c, rng.integers(95, 98, size=n))

    @pytest.mark.parametrize("c", [0.5, 0.05, 0.005])
    def test_far_predictions_underflow_the_kernel(self, c):
        rng = np.random.default_rng(23)
        grid = BinGrid(-150.0, 150.0, 200)
        for n in (2, 64, 97):
            preds = rng.choice([-140.0, 0.0, 140.0], size=n) + rng.normal(size=n)
            kernel: list = []
            select_pseudo_labels(preds, grid, SCORE_PRIORS["mixture"], c, kernel)
            assert (kernel[0] == 0.0).any()
            self.assert_matches_reference(preds, grid, c)
            self.assert_matches_reference(preds, grid, c, rng.integers(0, grid.count, size=n))


def small_target(n=120, d=3, frac=0.3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.tanh(X).sum(axis=1) + 0.05 * rng.normal(size=n)
    ds = Dataset(X, y, np.ones(n, dtype=bool))
    return stratified_label_mask(ds, frac, n_strata=10, seed=seed)


def craft_config(target, alpha=0.1, epochs=3, seed=0, lr=1e-3):
    labeled = target.labels[target.labeled]
    grid = make_bin_grid(40, labeled)
    prior = uniform_prior(grid.lo, grid.hi)
    return CraftConfig(alpha=alpha, c=0.5, grid=grid, prior=prior, batch_size=32,
                       epochs=epochs, seed=seed, learning_rate=lr)


def trajectory(fit, params, target, config):
    """Parameters after each epoch of a fit under ``config``.

    A fit of k epochs without a validation set ends where epoch k of a
    longer fit does: it draws the same RNG stream and Adam state.
    """
    return [fit(params, target, replace(config, epochs=k))[0]
            for k in range(1, config.epochs + 1)]


class TestFitLoops:
    def test_alpha_zero_trajectory_equals_tl(self):
        target = small_target()
        params = init_params(MlpSpec((3, 8, 1)), seed=1)
        config = craft_config(target, alpha=0.0, epochs=5)
        traj_craft = trajectory(fit_craft, params, target, config)
        traj_tl = trajectory(fit_tl, params, target, config)
        assert len(traj_craft) == len(traj_tl) == 5
        for pc, pt in zip(traj_craft, traj_tl):
            for (_, a), (_, b) in zip(pc.blocks(), pt.blocks()):
                assert np.array_equal(a, b)

    def test_tl_zero_learning_rate_returns_source_params(self):
        target = small_target()
        params = init_params(MlpSpec((3, 8, 1)), seed=2)
        adapted, _ = fit_tl(params, target, craft_config(target, epochs=3, lr=0.0))
        for (_, a), (_, b) in zip(adapted.blocks(), params.blocks()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("fit", [fit_craft, fit_tl])
    def test_a_validation_set_keeps_the_best_epoch(self, fit):
        target = small_target()
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        val = Dataset(X, np.tanh(X).sum(axis=1), np.ones(40, dtype=bool))
        params = init_params(MlpSpec((3, 8, 1)), seed=1)
        config = craft_config(target, epochs=8, lr=3e-2)
        traj = trajectory(fit, params, target, config)
        val_rmse = [rmse(forward_batch(p, val.features), val.labels) for p in traj]
        best = int(np.argmin(val_rmse))
        assert 0 < best < len(traj) - 1  # the best epoch is neither the first nor the last
        kept, _ = fit(params, target, config, val=val)
        np.testing.assert_array_equal(kept.vector, traj[best].vector)
        last, _ = fit(params, target, config)
        np.testing.assert_array_equal(last.vector, traj[-1].vector)

    def test_a_validation_set_without_a_labeled_row_is_rejected(self):
        target = small_target()
        X = np.random.default_rng(4).normal(size=(40, 3))
        val = Dataset(X, np.full(40, np.nan), np.zeros(40, dtype=bool))
        with pytest.raises(ValueError, match="validation set has no labeled row"):
            fit_craft(init_params(MlpSpec((3, 8, 1)), seed=1), target, craft_config(target), val=val)

    @pytest.mark.parametrize("missing", ["grid", "prior"])
    def test_a_positive_alpha_needs_a_grid_and_a_prior(self, missing):
        target = small_target()
        config = replace(craft_config(target, alpha=0.1), **{missing: None})
        with pytest.raises(ValueError, match="^adaptation needs a bin grid and a label prior$"):
            fit_craft(init_params(MlpSpec((3, 8, 1)), seed=1), target, config)

    @pytest.mark.parametrize("fit", [fit_craft, fit_tl])
    def test_the_source_params_stay_as_they_were(self, fit):
        target = small_target()
        params = init_params(MlpSpec((3, 8, 1)), seed=1)
        before = params.vector.copy()
        adapted, _ = fit(params, target, craft_config(target, epochs=2, lr=3e-2))
        np.testing.assert_array_equal(params.vector, before)
        assert not np.shares_memory(adapted.vector, params.vector)

    @pytest.mark.parametrize("fit", [fit_craft, fit_tl])
    def test_the_number_of_parameter_objects_does_not_grow_with_the_steps(self, fit,
                                                                          monkeypatch):
        built = []
        real_init = RegressorParams.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(RegressorParams, "__init__", counting_init)
        target = small_target()
        params = init_params(MlpSpec((3, 8, 1)), seed=1)
        counts = []
        for epochs in (1, 3):
            built.clear()
            fit(params, target, craft_config(target, epochs=epochs))
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_tl_loss_decreases_on_convex_instance(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(200, 2))
        y = X @ np.array([0.7, -0.4]) + 0.2
        target = Dataset(X, y, np.ones(200, dtype=bool))
        params = init_params(MlpSpec((2, 1)), seed=0)
        _, report = fit_tl(params, target, craft_config(target, epochs=25, lr=0.02))
        losses = [row["supervised"] for row in report.epochs]
        assert losses[-1] < losses[0]
        assert min(losses[-5:]) <= min(losses[:5])

    @pytest.mark.parametrize("field,value", [("epochs", 2.5), ("batch_size", 7.5),
                                             ("seed", 1.5), ("epochs", True)])
    def test_counts_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
            fit_config(alpha=0.0, **{field: value})

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="^seed must be at least 0"):
            fit_config(alpha=0.0, seed=-1)

    def test_fit_settings_have_no_engine_defaults(self):
        with pytest.raises(TypeError, match="learning_rate"):
            CraftConfig(alpha=0.1, c=0.5, batch_size=64, epochs=1, seed=0)

    def test_tl_requires_labeled_rows(self):
        ds = Dataset(np.ones((4, 1)), np.full(4, np.nan), np.zeros(4, dtype=bool))
        params = init_params(MlpSpec((1, 1)), 0)
        with pytest.raises(ValueError, match="labeled"):
            fit_tl(params, ds, fit_config(alpha=0.0, epochs=1))

    def test_craft_at_alpha_zero_requires_labeled_rows_like_tl(self):
        ds = Dataset(np.ones((4, 1)), np.full(4, np.nan), np.zeros(4, dtype=bool))
        params = init_params(MlpSpec((1, 1)), 0)
        config = fit_config(alpha=0.0, epochs=1)
        with pytest.raises(ValueError) as tl_error:
            fit_tl(params, ds, config)
        with pytest.raises(ValueError) as craft_error:
            fit_craft(params, ds, config)
        assert str(craft_error.value) == str(tl_error.value)

    def test_craft_fails_on_a_prior_with_no_mass_on_the_grid(self):
        target = small_target()
        config = replace(craft_config(target, epochs=1), prior=uniform_prior(100.0, 101.0))
        with pytest.raises(ValueError, match="prior puts no mass on any candidate bin"):
            fit_craft(init_params(MlpSpec((3, 6, 1)), seed=5), target, config)

    def test_tl_report_echoes_the_alpha_it_trained_at(self):
        target = small_target()
        params = init_params(MlpSpec((3, 8, 1)), seed=1)
        _, report = fit_tl(params, target, craft_config(target, alpha=0.3, epochs=2))
        assert report.method == "tl"
        assert report.alpha == 0.0
        assert all(row["unsup_contrastive"] == 0.0 for row in report.epochs)
        # the grid in the config goes unread, so the report names no bins
        assert report.bins is None and report.pseudo_label_hist == []

    def test_craft_handles_fully_labeled_batches(self):
        # no unlabeled rows: the unsupervised term runs on the labeled batch
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 2))
        y = X.sum(axis=1)
        target = Dataset(X, y, np.ones(60, dtype=bool))
        params = init_params(MlpSpec((2, 6, 1)), seed=3)
        config = craft_config(target, alpha=0.1, epochs=2)
        _, report = fit_craft(params, target, config)
        assert sum(report.pseudo_label_hist) == 2 * 60
        assert any(row["unsup_contrastive"] > 0 for row in report.epochs)

    def test_craft_deterministic_per_seed(self):
        target = small_target(seed=4)
        params = init_params(MlpSpec((3, 6, 1)), seed=5)
        config = craft_config(target, epochs=3, seed=11)
        a, report_a = fit_craft(params, target, config)
        b, report_b = fit_craft(params, target, config)
        for (_, w1), (_, w2) in zip(a.blocks(), b.blocks()):
            np.testing.assert_array_equal(w1, w2)
        assert report_a.pseudo_label_hist == report_b.pseudo_label_hist

    def test_checkpoint_initialized_run_matches_in_memory_run(self, tmp_path):
        target = small_target(seed=6)
        params = init_params(MlpSpec((3, 6, 1)), seed=7)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, fit_scaler(target))
        loaded = load_checkpoint(path).params
        config = craft_config(target, epochs=3, seed=1)
        a, _ = fit_craft(params, target, config)
        b, _ = fit_craft(loaded, target, config)
        for (_, w1), (_, w2) in zip(a.blocks(), b.blocks()):
            np.testing.assert_array_equal(w1, w2)


def max_gap(a, b):
    return float(np.abs(a.vector - b.vector).max())


class TestFusedStep:
    """The one-forward training step against the unfused reference loop."""

    @pytest.mark.parametrize("alpha,frac", [
        (0.1, 0.3),
        (0.0, 0.3),
        (0.1, 1.0),  # no unlabeled rows in any batch
        (0.1, 0.05),  # neither split into equal batches
    ])
    def test_fit_craft_tracks_unfused_reference(self, alpha, frac):
        target = small_target(seed=13, frac=frac)
        params = init_params(MlpSpec((3, 8, 8, 1)), seed=14)
        config = craft_config(target, alpha=alpha, epochs=3, seed=2, lr=1e-2)
        fused = trajectory(fit_craft, params, target, config)
        reference = reference_fit(params, target, config)
        assert len(fused) == len(reference) == 3
        for ours, ref in zip(fused, reference):
            assert max_gap(ours, ref) <= 1e-12
        assert max_gap(fused[-1], params) > 1e-3  # the fit moved

    def test_fit_tl_tracks_unfused_reference(self):
        target = small_target(seed=15)
        params = init_params(MlpSpec((3, 8, 1)), seed=16)
        config = craft_config(target, epochs=3, lr=1e-2)
        fused = trajectory(fit_tl, params, target, config)
        for ours, ref in zip(fused, reference_fit(params, target, replace(config, alpha=0.0))):
            assert max_gap(ours, ref) <= 1e-12

    def test_prior_evaluated_once_per_step(self, monkeypatch):
        import craft.engine

        calls = []
        steps = []
        real_prior, real_adam = craft.engine.prior_log_density, craft.engine.adam_step

        def counting_prior(prior, y):
            calls.append(np.asarray(y).shape)
            return real_prior(prior, y)

        def counting_adam(params, grads, state):
            steps.append(1)
            return real_adam(params, grads, state)

        monkeypatch.setattr(craft.engine, "prior_log_density", counting_prior)
        monkeypatch.setattr(craft.engine, "adam_step", counting_adam)
        target = small_target(seed=17)
        params = init_params(MlpSpec((3, 6, 1)), seed=18)
        config = craft_config(target, epochs=3)
        fit_craft(params, target, config)
        batches = math.ceil(target.n / config.batch_size)
        assert len(steps) == config.epochs * batches
        assert calls == [(config.grid.count,)] * len(steps)
        calls.clear()
        fit_tl(params, target, config)
        assert calls == []

    def test_loss_evaluated_once_per_step(self, monkeypatch):
        import craft.engine

        calls = []
        steps = []
        real_loss, real_adam = craft.engine.craft_loss_and_grad, craft.engine.adam_step

        def counting_loss(*args, **kwargs):
            calls.append(1)
            return real_loss(*args, **kwargs)

        def counting_adam(params, grads, state):
            steps.append(1)
            return real_adam(params, grads, state)

        monkeypatch.setattr(craft.engine, "craft_loss_and_grad", counting_loss)
        monkeypatch.setattr(craft.engine, "adam_step", counting_adam)
        target = small_target(seed=19)
        params = init_params(MlpSpec((3, 6, 1)), seed=20)
        config = craft_config(target, epochs=3)
        batches = math.ceil(target.n / config.batch_size)
        for fit in (fit_craft, fit_tl):
            calls.clear()
            steps.clear()
            fit(params, target, config)
            assert len(steps) == config.epochs * batches
            assert len(calls) == len(steps)


class TestShiftDegradesTransfer:
    def test_source_model_worse_on_shifted_target(self):
        spec = default_scenario(seed=3, n_source=1200, n_target_train=10,
                                n_target_val=10, n_target_test=600)
        source, _, _, target_test = generate_synthetic(spec)
        holdout = source.subset(np.arange(900, 1200))
        train = source.subset(np.arange(900))
        scaler = fit_scaler(train)
        scaled = apply_scaler(train, scaler)
        params = init_params(MlpSpec((8, 32, 32, 1)), seed=0)
        config = fit_config(alpha=0.0, epochs=60, seed=0, learning_rate=3e-3, batch_size=64)
        fitted, _ = fit_tl(params, scaled, config)

        def units_rmse(ds):
            x = (ds.features - scaler.feature_mean) / scaler.feature_std
            preds = scaler.unscale_labels(forward_batch(fitted, x))
            return rmse(preds, ds.labels)

        source_rmse = units_rmse(holdout)
        target_rmse = units_rmse(target_test)
        assert target_rmse > source_rmse


@pytest.mark.parametrize("call,message", [
    (lambda: make_bin_grid(10, []), "^labels must be nonempty and finite$"),
    (lambda: make_bin_grid(10, [0.0, np.nan]), "^labels must be nonempty and finite$"),
    (lambda: make_bin_grid(10, [1.0, 1.0]),
     "^label range is zero; build a BinGrid over an explicit range instead$"),
    (lambda: joint_log_scores(np.zeros((2, 2)), UNIT_GRID, uniform_prior(-1.5, 1.5), 0.5),
     "^predictions must be a nonempty vector$"),
], ids=["no-labels", "nan-label", "zero-range", "matrix-predictions"])
def test_each_input_check_fails_with_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
