import inspect
import json
import math
import re
import warnings

import numpy as np
import pytest
from oracles import (
    loop_component_log_pdfs,
    loop_em_fit,
    loop_histogram_log_density,
    loop_mixture_log_density,
    uniform_prior,
)

from craft import priors
from craft.priors import (
    HistogramPrior,
    MixturePrior,
    affine_transform_prior,
    em_fit,
    fit_histogram_prior,
    fit_prior,
    load_prior,
    prior_from_dict,
    prior_log_density,
    prior_to_dict,
    save_prior,
)


ORACLE_DATASETS = {
    "blend": np.concatenate([np.random.default_rng(3).normal(0, 1, 120),
                             np.random.default_rng(3).exponential(2.0, 80)]),
    "crosses-zero": np.random.default_rng(21).gamma(2.0, 1.0, 150) - 1.0,
    # a tight cluster: by the fifth step both Gaussians sit on the variance floor
    "floor-binds": np.r_[np.random.default_rng(8).normal(3.0, 1e-3, 120),
                         np.random.default_rng(9).exponential(2.0, 80)],
}


class TestEmFit:
    @pytest.mark.parametrize("name", list(ORACLE_DATASETS))
    @pytest.mark.parametrize("max_iters", [1, 2, 5])
    def test_matches_the_loop_em_oracle(self, name, max_iters, monkeypatch):
        monkeypatch.setattr(priors, "EM_MAX_ITERS", max_iters)
        x = ORACLE_DATASETS[name]
        fitted = em_fit(x, seed=4)
        expected = loop_em_fit(x, 4, max_iters, priors.EM_TOL)
        for field, value in zip(("weights", "means", "variances", "rates", "offset", "loglik_path"),
                                expected):
            np.testing.assert_allclose(getattr(fitted, field), value, rtol=1e-10, err_msg=field)

    def test_variance_floor_applies(self):
        # the cluster's spread 1e-3 is far below the floor 1e-4 * range**2
        x = ORACLE_DATASETS["floor-binds"]
        floor = 1e-4 * (x.max() - x.min()) ** 2
        assert em_fit(x, seed=4).variances.tolist() == [floor, floor]

    def test_blend_recovery(self):
        rng = np.random.default_rng(42)
        n = 6000
        x = np.concatenate([rng.normal(6.0, 0.5, n // 3), rng.normal(10.0, 0.5, n // 3),
                            rng.exponential(1.0, n // 3)])
        params = em_fit(x, seed=0)
        np.testing.assert_allclose(params.weights, 1.0 / 3.0, atol=0.02)
        np.testing.assert_allclose(params.means - params.offset, [6.0, 10.0], atol=0.1)
        np.testing.assert_allclose(params.variances, 0.25, rtol=0.05)
        assert abs(params.rates[0] - 1.0) < 0.1

    def test_loglik_monotone_over_seeded_datasets(self, monkeypatch):
        monkeypatch.setattr(priors, "EM_MAX_ITERS", 60)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = np.concatenate([rng.normal(2, 1, 150), rng.exponential(1.5, 100)])
            params = em_fit(x, seed=seed)
            path = np.array(params.loglik_path)
            assert path.size >= 1
            assert np.all(np.diff(path) >= -1e-9)

    def test_mstep_invariants_hold_at_every_prefix(self, monkeypatch):
        # em_fit is deterministic per seed, so truncated runs expose each M-step
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(0, 1, 120), rng.exponential(2.0, 80)])
        for iters in range(1, 8):
            monkeypatch.setattr(priors, "EM_MAX_ITERS", iters)
            p = em_fit(x, seed=3)
            assert abs(p.weights.sum() - 1.0) < 1e-12
            assert np.all(p.weights >= 0)
            floor = 1e-4 * (x.max() - x.min()) ** 2
            assert np.all(p.variances >= floor - 1e-15)
            assert np.all(p.rates > 0)

    def test_deterministic_per_seed(self):
        x = np.random.default_rng(1).normal(size=300)
        a, b, other = em_fit(x, seed=5), em_fit(x, seed=5), em_fit(x, seed=6)
        for name in ("weights", "means", "variances", "rates"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.loglik_path == b.loglik_path
        assert a.rates[0] != other.rates[0]  # the seed jitters the start

    @pytest.mark.parametrize("max_iters", [1, 20, 500])
    def test_fit_commutes_with_a_positive_affine_map(self, max_iters, monkeypatch):
        # age-like labels, all positive, mapped onto a range that crosses zero
        monkeypatch.setattr(priors, "EM_MAX_ITERS", max_iters)
        ages = 18.0 + np.random.default_rng(11).gamma(4.0, 8.0, 400)
        a, b = 0.05, -2.5
        raw = em_fit(ages, seed=4)
        fitted = em_fit(a * ages + b, seed=4)
        moved = affine_transform_prior(raw, a, b)
        for name in ("weights", "means", "variances", "rates", "offset"):
            np.testing.assert_allclose(getattr(fitted, name), getattr(moved, name), rtol=1e-12)
        assert len(fitted.loglik_path) == len(raw.loglik_path)

    def test_degenerate_data_errors(self):
        with pytest.raises(ValueError, match="^need at least 3 distinct values to fit 3 components$"):
            em_fit(np.full(10, 3.0), seed=0)

    def test_equals_the_loop_component_reference(self, monkeypatch):
        monkeypatch.setattr(priors, "EM_MAX_ITERS", 200)
        labels = np.random.default_rng(21).gamma(2.0, 1.0, 150) - 1.0
        fitted = em_fit(labels, seed=3)
        def loop_weighted_log_pdfs(columns, z):
            # halving the doubled variances is exact; the loop recomputes every other constant
            log_weights, means, doubled_variances, _, rates, _ = columns
            return log_weights + loop_component_log_pdfs(means[:, 0], doubled_variances[:, 0] / 2.0,
                                                         rates[:, 0], z)

        monkeypatch.setattr(priors, "_weighted_log_pdfs", loop_weighted_log_pdfs)
        reference = em_fit(labels, seed=3)
        assert fitted.loglik_path == reference.loglik_path
        for name in ("weights", "means", "variances", "rates"):
            np.testing.assert_array_equal(getattr(fitted, name), getattr(reference, name))

    @pytest.mark.parametrize("labels,span", [
        ([-1e200, 1e200, 0.0, 1.0], "[-1e+200, 1e+200]"),
        ([0.0, 1e-300, 2e-300], "[0.0, 2e-300]"),
    ], ids=["floor-overflows", "floor-underflows"])
    def test_a_range_whose_variance_floor_float64_cannot_hold_fails_naming_it(self, labels, span):
        # the floor 1e-4 * range**2 overflows past about 1.3e154 and underflows below about
        # 1.5e-152; either fails before numpy warns, and the histogram form still fits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^labels span {re.escape(span)}, a range too "
                                                 r"wide or too narrow for EM in float64$"):
                fit_prior(labels, "mixture", 0)
            assert fit_prior(labels, "histogram", 0).probs.size == 10

    def test_labels_the_offset_cannot_shift_above_the_origin_fail_naming_the_span(self):
        # the float spacing at 1e17 is 16, so the offset's 1e-6 * range is rounded away and the
        # smallest shifted label lands on the exponential's origin; the fit fails before numpy warns
        labels = [1e17, 1e17 + 16, 1e17 + 32]
        span = re.escape(f"[{labels[0]!r}, {labels[2]!r}]")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^labels span {span}, a range too wide or too "
                                                 r"narrow for EM in float64$"):
                fit_prior(labels, "mixture", 0)
            assert fit_histogram_prior(labels, 2).probs.size == 2

    def test_a_range_whose_summed_squares_overflow_fails(self):
        # the floor alone fits, but n squared deviations of the range would not
        r = 1.01 * math.sqrt(np.finfo(np.float64).max / 1000)
        labels = np.linspace(0.0, r, 1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^labels span .* too wide or too narrow for EM"):
                em_fit(labels, seed=0)
            assert em_fit(labels[:900], seed=0).variances.size == 2

    def test_too_few_distinct_values_errors(self):
        with pytest.raises(ValueError, match="distinct"):
            em_fit(np.array([0.0, 1.0, 0.0, 1.0]), seed=0)

    def test_takes_only_the_labels_and_the_seed(self):
        assert list(inspect.signature(em_fit).parameters) == ["labels", "seed"]

    @pytest.mark.parametrize("cap", [1, 5, 40])
    def test_stops_at_em_max_iters(self, cap, monkeypatch):
        # this mixture still gains more than EM_TOL per step after 500 iterations
        monkeypatch.setattr(priors, "EM_MAX_ITERS", cap)
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(0, 1, 120), rng.exponential(2.0, 80)])
        assert len(em_fit(x, seed=3).loglik_path) == cap

    def test_stops_on_the_first_step_that_gains_less_than_em_tol(self, monkeypatch):
        monkeypatch.setattr(priors, "EM_TOL", 1e-3)
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(0, 1, 120), rng.exponential(2.0, 80)])
        gains = np.diff(em_fit(x, seed=3).loglik_path)
        assert 1 <= gains.size < priors.EM_MAX_ITERS - 1
        assert gains[-1] < 1e-3
        assert np.all(gains[:-1] >= 1e-3)

    def test_converged_reads_the_last_step_not_the_path_length(self, monkeypatch):
        # a fit whose tolerance stop falls on its last allowed iteration has converged
        x = ORACLE_DATASETS["crosses-zero"]
        free = em_fit(x, seed=3)
        steps = len(free.loglik_path)
        assert free.converged and steps < priors.EM_MAX_ITERS
        monkeypatch.setattr(priors, "EM_MAX_ITERS", steps)
        at_cap = em_fit(x, seed=3)
        assert at_cap.loglik_path == free.loglik_path and at_cap.converged
        monkeypatch.setattr(priors, "EM_MAX_ITERS", steps - 1)
        capped = em_fit(x, seed=3)
        assert len(capped.loglik_path) == steps - 1 and not capped.converged

    def test_a_prior_built_without_a_fit_has_not_converged(self):
        fitted = em_fit(ORACLE_DATASETS["crosses-zero"], seed=3)
        assert not prior_from_dict(prior_to_dict(fitted)).converged


class TestMixtureLogDensity:
    def test_single_gaussian_at_mean(self):
        prior = MixturePrior([1.0], [0.0], [1.0], [], 0.0)
        expected = -0.5 * math.log(2 * math.pi)
        assert abs(prior_log_density(prior, 0.0) - expected) < 1e-12

    def test_a_scalar_query_gives_a_one_element_array(self):
        prior = MixturePrior([1.0], [0.0], [1.0], [], 0.0)
        for query in (0.0, np.float64(0.0), np.array(0.0)):
            assert prior_log_density(prior, query).shape == (1,)

    def test_exponential_below_support_is_minus_inf(self):
        prior = MixturePrior([1.0], [], [], [1.0], 0.0)
        assert prior_log_density(prior, -0.5) == -np.inf
        assert prior_log_density(prior, 0.0) == 0.0  # log(1 * e^0)

    def test_density_normalizes_by_quadrature(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.normal(4, 1, 400), rng.exponential(1.0, 300)])
        prior = em_fit(x, seed=2)
        grid = np.linspace(-20.0, 60.0, 200001)
        dens = np.exp(prior_log_density(prior, grid))
        assert abs(np.trapezoid(dens, grid) - 1.0) < 1e-3

    def test_offset_shifts_evaluation(self):
        base = MixturePrior([1.0], [1.0], [0.5], [], 0.0)
        shifted = MixturePrior([1.0], [1.0], [0.5], [], 2.0)
        assert abs(prior_log_density(shifted, -1.0) - prior_log_density(base, 1.0)) < 1e-15


EDGE_MIXTURES = {
    "fitted": (em_fit(np.random.default_rng(5).gamma(2.0, 1.0, 200) - 1.0, seed=1),
               np.linspace(-3.0, 6.0, 200)),
    "zero-weight": (MixturePrior([0.6, 0.0, 0.4], [0.2, 1.0], [0.5, 0.1], [2.0], 1.5),
                    np.linspace(-3.0, 3.0, 200)),
    "gaussian-only": (MixturePrior([0.3, 0.7], [-1.0, 0.5], [0.2, 1.3], [], 0.0),
                      np.linspace(-3.0, 3.0, 97)),
    "exponential-only": (MixturePrior([0.25, 0.75], [], [], [0.7, 3.0], 0.4),
                         np.linspace(-3.0, 3.0, 64)),
    "below-origin": (MixturePrior([0.25, 0.75], [], [], [0.7, 3.0], 0.4),
                     np.linspace(-5.0, -0.5, 2)),
    "nan-point": (MixturePrior([0.5, 0.5], [0.0], [1.0], [1.0], 0.0), np.array([np.nan, 0.5])),
    # numpy's array log can round a few of these rates differently from math.log
    "many-rates": (MixturePrior(np.full(4000, 1.0 / 4000), [], [],
                                np.random.default_rng(6).uniform(0.05, 20.0, 4000), 0.0),
                   np.array([0.5, 1.0])),
}


@pytest.mark.parametrize("name", list(EDGE_MIXTURES))
class TestMixtureKernelsAreExact:
    def test_weighted_log_pdfs_equal_the_loop_reference(self, name):
        prior, y = EDGE_MIXTURES[name]
        z = y + prior.offset
        with np.errstate(divide="ignore"):
            log_weights = np.log(prior.weights)[:, None]
        reference = log_weights + loop_component_log_pdfs(prior.means, prior.variances, prior.rates, z)
        assert np.array_equal(priors._weighted_log_pdfs(prior._columns, z), reference, equal_nan=True)

    def test_log_density_equals_the_loop_reference(self, name):
        prior, y = EDGE_MIXTURES[name]
        assert np.array_equal(prior_log_density(prior, y), loop_mixture_log_density(prior, y))


_EMPTY_BIN = HistogramPrior([0.0, 0.5, 1.5, 3.0], [0.3, 0.0, 0.7])
EDGE_HISTOGRAMS = {
    "fitted": fit_histogram_prior(np.random.default_rng(8).normal(size=200), 10),
    "empty-bin": _EMPTY_BIN,
    "affine": affine_transform_prior(_EMPTY_BIN, 0.3, -2.0),
}


@pytest.mark.parametrize("name", list(EDGE_HISTOGRAMS))
def test_histogram_log_density_equals_the_loop_reference(name):
    prior = EDGE_HISTOGRAMS[name]
    edges = prior.edges
    y = np.concatenate([edges, (edges[:-1] + edges[1:]) / 2.0,
                        [edges[0] - 1.0, edges[-1] + 1.0, np.nan]])
    assert np.array_equal(prior_log_density(prior, y), loop_histogram_log_density(prior, y),
                          equal_nan=True)


class TestPriorLogDensity:
    def test_uniform_interior(self):
        prior = uniform_prior(-1.0, 1.0)
        assert abs(prior_log_density(prior, 0.3) - math.log(0.5)) < 1e-15
        assert prior_log_density(prior, 1.5) == -np.inf

    def test_histogram_unit_width(self):
        prior = HistogramPrior([0.0, 1.0, 2.0], [0.5, 0.5])
        assert abs(prior_log_density(prior, 0.5) - math.log(0.5)) < 1e-15
        assert abs(prior_log_density(prior, 1.5) - math.log(0.5)) < 1e-15
        assert prior_log_density(prior, 2.0) == prior_log_density(prior, 1.5)  # right edge owns last bin
        assert prior_log_density(prior, 2.1) == -np.inf

    def test_mixture_matches_weighted_component_sum(self):
        prior = MixturePrior([0.6, 0.4], [0.0], [1.0], [2.0], 1.0)
        ys = np.linspace(-3, 3, 17)
        for y in ys:
            z = y + 1.0
            dens = 0.6 * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            dens += 0.4 * 2.0 * math.exp(-2.0 * z) if z >= 0.0 else 0.0
            assert abs(prior_log_density(prior, y) - math.log(dens)) < 1e-12
        np.testing.assert_array_equal(prior_log_density(prior, ys),
                                      [prior_log_density(prior, y)[0] for y in ys])

    def test_zero_probability_bin_is_minus_inf(self):
        prior = HistogramPrior([0.0, 1.0, 2.0], [1.0, 0.0])
        assert prior_log_density(prior, 1.5) == -np.inf


class TestHistogramFit:
    def test_two_even_bins(self):
        prior = fit_histogram_prior(np.array([0.0, 0.0, 1.0, 1.0]), 2)
        np.testing.assert_allclose(prior.probs, [0.5, 0.5])

    def test_single_bin(self):
        prior = fit_histogram_prior(np.array([0.3, 0.9]), 1)
        np.testing.assert_allclose(prior.probs, [1.0])

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(5)
        labels = rng.normal(size=500)
        n_bins = 13
        prior = fit_histogram_prior(labels, n_bins)
        edges = prior.edges
        counts = np.zeros(n_bins)
        for v in labels:  # brute-force per-bin count; right edge closes the last bin
            for b in range(n_bins):
                if (edges[b] <= v < edges[b + 1]) or (b == n_bins - 1 and v == edges[-1]):
                    counts[b] += 1
                    break
        np.testing.assert_allclose(prior.probs, counts / labels.size, atol=1e-15)

    def test_identical_labels_collapse_to_unit_bin(self):
        prior = fit_histogram_prior(np.full(5, 2.0), 4)
        assert prior.probs.tolist() == [1.0]
        assert abs(prior_log_density(prior, 2.0) - 0.0) < 1e-15

    @pytest.mark.parametrize("value", [1e17, -1e17, 1e308])
    def test_identical_labels_too_large_for_a_unit_bin_fail_naming_them(self, value):
        with pytest.raises(ValueError, match=rf"^labels are all {re.escape(repr(value))}, too large "
                                             r"for a unit-width bin around them$"):
            fit_histogram_prior(np.full(3, value), 4)

    def test_distinct_labels_float64_cannot_cut_into_the_bins_fail_naming_the_span(self):
        # the float spacing at 1e17 is 16: ten bins over a 16-wide span would repeat edges
        labels = [1e17, 1e17 + 16, 1e17]
        span = re.escape(f"[{labels[0]!r}, {labels[1]!r}]")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^labels span {span}, a range float64 cannot "
                                                 r"cut into 10 bins$"):
                fit_prior(labels, "histogram", 0)
            assert fit_histogram_prior(labels, 1).probs.tolist() == [1.0]

    def test_edges_whose_span_overflows_fail(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^edges must span a range that float64 holds$"):
                HistogramPrior([-1e308, 1e308], [1.0])

    def test_weight_rescaling_is_normalized_away(self):
        a = HistogramPrior([0.0, 1.0, 2.0], [0.2, 0.8])
        b = HistogramPrior([0.0, 1.0, 2.0], [1.0, 4.0])
        np.testing.assert_allclose(a.probs, b.probs)


class TestSerialization:
    def test_mixture_schema_keys(self):
        params = MixturePrior([0.6, 0.4], [1.0], [2.0], [0.5], 0.25)
        d = prior_to_dict(params)
        assert list(d) == ["kind", "weights", "gaussians", "exponentials", "offset"]
        assert d["gaussians"] == [[1.0, 2.0]]
        assert d["exponentials"] == [0.5]
        back = prior_from_dict(json.loads(json.dumps(d)))
        np.testing.assert_array_equal(back.weights, params.weights)
        np.testing.assert_array_equal(back.means, params.means)
        np.testing.assert_array_equal(back.variances, params.variances)
        np.testing.assert_array_equal(back.rates, params.rates)
        assert back.offset == params.offset

    @pytest.mark.parametrize("build,field", [
        (lambda: MixturePrior([math.nan], [0.0], [1.0], [], 0.0), "weights"),
        (lambda: MixturePrior([1.0], [math.nan], [1.0], [], 0.0), "means"),
        (lambda: MixturePrior([1.0], [0.0], [math.inf], [], 0.0), "variances"),
        (lambda: MixturePrior([1.0], [], [], [math.inf], 0.0), "rates"),
        (lambda: MixturePrior([1.0], [0.0], [1.0], [], math.nan), "offset"),
        (lambda: HistogramPrior([0.0, math.inf], [1.0]), "edges"),
        (lambda: HistogramPrior([0.0, 1.0], [math.inf]), "probs"),
    ], ids=["weights", "means", "variances", "rates", "offset", "edges", "probs"])
    def test_a_non_finite_entry_fails_naming_the_field(self, build, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            build()

    def test_uniform_dict_is_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown prior kind 'uniform'"):
            prior_from_dict({"kind": "uniform", "lo": -2.0, "hi": 3.0})

    def test_prior_round_trips(self):
        priors = [
            uniform_prior(-2.0, 3.0),
            HistogramPrior([0.0, 1.0, 2.5], [0.25, 0.75]),
            MixturePrior([1.0], [0.0], [1.0], [], 0.0),
        ]
        ys = np.linspace(-2.5, 3.5, 31)
        for prior in priors:
            back = prior_from_dict(json.loads(json.dumps(prior_to_dict(prior))))
            assert type(back) is type(prior)
            np.testing.assert_array_equal(prior_log_density(back, ys), prior_log_density(prior, ys))


class TestFitPrior:
    LABELS = np.random.default_rng(5).normal(1.0, 0.5, 150)

    def test_a_mixture_is_the_two_gaussian_one_exponential_em_fit(self):
        fitted, expected = fit_prior(self.LABELS, "mixture", 3), em_fit(self.LABELS, 3)
        for name in ("weights", "means", "variances", "rates"):
            np.testing.assert_array_equal(getattr(fitted, name), getattr(expected, name))
        assert fitted.offset == expected.offset
        assert fitted.loglik_path == expected.loglik_path

    def test_a_histogram_is_fit_histogram_prior(self):
        fitted, expected = fit_prior(self.LABELS, "histogram", 3), fit_histogram_prior(self.LABELS, 10)
        np.testing.assert_array_equal(fitted.edges, expected.edges)
        np.testing.assert_array_equal(fitted.probs, expected.probs)

    def test_takes_only_the_labels_the_form_and_the_seed(self):
        assert list(inspect.signature(fit_prior).parameters) == ["labels", "form", "seed"]

    @pytest.mark.parametrize("form", ["uniform", "flat", None])
    def test_another_form_fails_naming_prior_form(self, form):
        with pytest.raises(ValueError, match=rf"^unknown prior_form {form!r}$"):
            fit_prior(self.LABELS, form, 0)

    @pytest.mark.parametrize("form", ["mixture", "histogram"])
    def test_no_labels_fail(self, form):
        with pytest.raises(ValueError, match="^no labels available to fit the prior$"):
            fit_prior(np.empty(0), form, 0)

    @pytest.mark.parametrize("form", ["mixture", "histogram"])
    def test_labels_whose_range_overflows_fail_naming_it(self, form):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^labels span \[-1e\+308, 1e\+308\], a range "
                                                 r"that overflows float64$"):
                fit_prior([-1e308, 1e308, 0.0, 1.0], form, 0)

    def test_calls_em_fit_through_the_module(self, monkeypatch):
        calls = []
        monkeypatch.setattr(priors, "em_fit", lambda *args: calls.append(args))
        fit_prior(self.LABELS, "mixture", 4)
        assert [args[1:] for args in calls] == [(4,)]


class TestPriorFiles:
    @pytest.mark.parametrize("form", ["mixture", "histogram"])
    def test_save_then_load_round_trips_in_the_indented_dict_format(self, tmp_path, form):
        prior = fit_prior(TestFitPrior.LABELS, form, 0)
        save_prior(tmp_path / "a.json", prior)
        back = load_prior(tmp_path / "a.json")
        save_prior(tmp_path / "b.json", back)
        written = (tmp_path / "a.json").read_bytes()
        assert written == json.dumps(prior_to_dict(prior), indent=2).encode()
        assert (tmp_path / "b.json").read_bytes() == written
        assert type(back) is type(prior)
        ys = np.linspace(-1.0, 3.0, 41)
        np.testing.assert_array_equal(prior_log_density(back, ys), prior_log_density(prior, ys))

    @pytest.mark.parametrize("text,message", [
        ("{", "Expecting property name"),
        ("[]", "a prior is a JSON object, not a list"),
        ('{"kind": "uniform"}', "unknown prior kind 'uniform'"),
        ('{"kind": "histogram", "edges": [-1e308, 1e308], "probs": [1.0]}',
         "edges must span a range that float64 holds"),
    ], ids=["not-json", "list", "unknown-kind", "edges-overflow"])
    def test_a_bad_file_fails_naming_it(self, tmp_path, text, message):
        path = tmp_path / "prior.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^prior file {re.escape(str(path))}: {message}"):
            load_prior(path)


    MIXTURE = {"kind": "mixture", "weights": [0.5, 0.3, 0.2], "gaussians": [[0.0, 1.0], [2.0, 0.5]],
               "exponentials": [1.5], "offset": 0.1}
    HISTOGRAM = {"kind": "histogram", "edges": [0.0, 1.0, 2.0], "probs": [0.25, 0.75]}

    @pytest.mark.parametrize("base,change,message", [
        ("MIXTURE", {"weights": [0.5, 0.5]}, "weights must have one entry per component"),
        ("MIXTURE", {"weights": [0.5, 0.3, 0.3]}, "weights must be nonnegative and sum to 1"),
        ("MIXTURE", {"weights": [1.2, -0.4, 0.2]}, "weights must be nonnegative and sum to 1"),
        ("MIXTURE", {"gaussians": [[0.0, 1.0], [2.0, 0.0]]}, "Gaussian variances must be positive"),
        ("MIXTURE", {"gaussians": [[0.0, -1.0], [2.0, 0.5]]},
         "Gaussian variances must be positive"),
        ("MIXTURE", {"exponentials": [0.0]}, "exponential rates must be positive"),
        ("MIXTURE", {"exponentials": [-1.5]}, "exponential rates must be positive"),
        ("HISTOGRAM", {"probs": [1.0]}, r"need len\(edges\) == len\(probs\) \+ 1"),
        ("HISTOGRAM", {"edges": [0.0, 1.0, 1.0]}, "edges must be strictly increasing"),
        ("HISTOGRAM", {"edges": [0.0, 2.0, 1.0]}, "edges must be strictly increasing"),
        ("HISTOGRAM", {"probs": [-0.25, 1.25]}, "bin weights must be nonnegative"),
        ("HISTOGRAM", {"probs": [0.0, 0.0]}, "bin weights must not all be zero"),
    ], ids=["weight-count", "weights-sum", "weight-negative", "variance-zero", "variance-negative",
            "rate-zero", "rate-negative", "length-mismatch", "edges-repeat", "edges-decrease",
            "bin-weight-negative", "bin-weights-zero"])
    def test_a_file_that_breaks_a_prior_rule_fails_naming_it(self, tmp_path, base, change,
                                                             message):
        path = tmp_path / "prior.json"
        path.write_text(json.dumps({**getattr(self, base), **change}))
        with pytest.raises(ValueError, match=f"^prior file {re.escape(str(path))}: {message}$"):
            load_prior(path)


class TestAffineTransform:
    def test_density_jacobian_identity(self):
        rng = np.random.default_rng(13)
        x = np.concatenate([rng.normal(2, 1, 200), rng.exponential(1, 100)])
        priors = [
            fit_histogram_prior(x, 8),
            uniform_prior(float(x.min()), float(x.max())),
            em_fit(x, seed=1),
        ]
        a, b = 2.5, -1.75
        ys = np.linspace(x.min() + 1e-6, x.max() - 1e-6, 50)
        for prior in priors:
            moved = affine_transform_prior(prior, a, b)
            np.testing.assert_allclose(
                prior_log_density(moved, a * ys + b),
                prior_log_density(prior, ys) - math.log(a),
                atol=1e-10,
            )

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            affine_transform_prior(uniform_prior(0, 1), -1.0, 0.0)


@pytest.mark.parametrize("call,error,message", [
    (lambda: MixturePrior([0.5, 0.5], [0.0, 1.0], [1.0], [], 0.0), ValueError,
     "^means and variances must pair up$"),
    (lambda: fit_prior([0.0, np.nan, 1.0, 2.0], "mixture", 0), ValueError,
     "^labels contain non-finite values$"),
    (lambda: em_fit(np.zeros((2, 2)), 0), ValueError, "^labels must be a nonempty vector$"),
    (lambda: fit_histogram_prior([1.0, 2.0], 0), ValueError, "^n_bins must be at least 1$"),
    (lambda: fit_histogram_prior([], 5), ValueError, "^labels must be nonempty$"),
    (lambda: prior_log_density(object(), [0.0]), TypeError, "^unknown prior type object$"),
    (lambda: affine_transform_prior(object(), 1.0, 0.0), TypeError, "^unknown prior type object$"),
    (lambda: prior_to_dict(object()), TypeError, "^unknown prior type object$"),
], ids=["unpaired-gaussians", "nan-label", "matrix-labels", "zero-bins", "no-labels",
        "density-of-unknown", "transform-of-unknown", "dict-of-unknown"])
def test_each_input_check_fails_with_its_message(call, error, message):
    with pytest.raises(error, match=message):
        call()
