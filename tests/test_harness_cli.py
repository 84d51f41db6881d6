import argparse
import builtins
import dataclasses
import json
import math
import re

import jsonschema
import numpy as np
import pytest

from craft import priors
from craft.cli import build_parser, config_from_args, main
from craft.data import Dataset, GeneratorSpec, apply_scaler, load_csv, write_csv
from craft.engine import RunReport, fit_craft, fit_tl, make_bin_grid
from craft.harness import (
    ExperimentConfig,
    RUN_REPORT_SCHEMA,
    _label_budget,
    adapt_in_memory,
    aggregate_sweep_rows,
    default_scenario,
    run_adapt,
    run_evaluate,
    run_fit_prior,
    run_sweep,
    run_synth,
    run_train_source,
    train_source_in_memory,
)
from craft.metrics import rmse
from craft.network import backward, load_checkpoint
from craft.priors import em_fit, prior_from_dict, prior_log_density, prior_to_dict


def inputs(ws):
    """The tiny workspace's checkpoint and target train, val and test splits."""
    return (load_checkpoint(ws["checkpoint"]),
            *(load_csv(ws["paths"][name]) for name in ("target_train", "target_val", "target_test")))


def partly_labeled(ws, split, tmp_path, unlabeled=False) -> str:
    """A copy of the workspace's ``split`` CSV with its first row, or every row, unlabeled."""
    full = load_csv(ws["paths"][split])
    labeled = np.full(full.n, not unlabeled)
    labeled[0] = False
    path = tmp_path / f"partial_{split}.csv"
    write_csv(Dataset(full.features, np.where(labeled, full.labels, np.nan)), path)
    return str(path)


def adapt_config(ws, tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        source_checkpoint=ws["checkpoint"],
        target_train=ws["paths"]["target_train"],
        target_val=ws["paths"]["target_val"],
        target_test=ws["paths"]["target_test"],
        out_dir=str(tmp_path / "out"),
        hidden_layers=(16, 16),
        epochs=6,
        learning_rate=1e-3,
        label_fraction=0.2,
        bins=60,
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# 0.5% of one 300-row stratum rounds to 2 labels, too few for a 3-component mixture
TWO_LABELS = {"label_fraction": 0.005, "n_strata": 1}


def two_labels_message(where=""):
    return (f"label_fraction 0.005 with n_strata 1 leaves 2 labeled rows of 300 target_train "
            f"rows{where}; mixture prior: need at least 3 distinct values to fit 3 components")


SCENARIO = default_scenario(seed=1, d=2).to_dict()
# a flat prior, as a one-bin histogram prior file holds it, wider than any label here
FLAT_PRIOR = prior_from_dict({"kind": "histogram", "edges": [-50.0, 50.0], "probs": [1.0]})


@pytest.mark.parametrize("overrides,field", [
    ({"alpha": -1}, "alpha"),
    ({"c": 0}, "c"),
    ({"batch_size": 0}, "batch_size"),
    ({"epochs": -1}, "epochs"),
    ({"model_selection": "x"}, "model_selection"),
    ({"method": "naive", "alpha": -1}, "alpha"),
    ({"alphas": [0.1, -1]}, "alpha"),
    ({"label_fractions": [0.5, 0.0]}, "label_fraction"),
    ({"methods": ["tl", "x"]}, "method"),
    ({"learning_rate": -1.0}, "learning_rate"),
    ({"learning_rate": math.nan}, "learning_rate"),
    ({"alpha": math.nan}, "alpha"),
    ({"c": math.nan}, "c"),
    ({"epochs": 2.5}, "epochs"),
    ({"batch_size": 7.5}, "batch_size"),
    ({"bins": 20.5}, "bins"),
    ({"bin_counts": [20, 20.5]}, "bin_counts"),
    ({"seed": 1.5}, "seed"),
    ({"seeds": [0, 1.5]}, "seeds"),
    ({"epochs": True}, "epochs"),
    ({"n_strata": 0}, "n_strata"),
    ({"hidden_layers": [4.5]}, "hidden_layers"),
    ({"hidden_layers": 32}, "hidden_layers"),
    ({"hidden_layers": [32, 0]}, "hidden_layers"),
    ({"val_fraction": 0.0}, "val_fraction"),
    ({"val_fraction": -0.5}, "val_fraction"),
    ({"val_fraction": 1.0}, "val_fraction"),
    ({"bias_keep_above": 1.5}, "bias_keep_above"),
    ({"seeds": 3}, "seeds"),
    ({"alphas": 0.1}, "alphas"),
    ({"methods": "craft"}, "methods"),
    ({"alpha": "0.1"}, "alpha"),
    ({"c": "0.5"}, "c"),
    ({"learning_rate": "1e-3"}, "learning_rate"),
    ({"label_fraction": "0.5"}, "label_fraction"),
    ({"val_fraction": "0.2"}, "val_fraction"),
    ({"bias_keep_above": "0.5"}, "bias_keep_above"),
    ({"alpha": True}, "alpha"),
    ({"label_fraction": True}, "label_fraction"),
    ({"alphas": [0.1, "1"]}, "alpha"),
    ({"label_fractions": [0.5, True]}, "label_fraction"),
    ({"source_train": 1}, "source_train"),
    ({"source_checkpoint": 7}, "source_checkpoint"),
    ({"target_train": 9}, "target_train"),
    ({"target_val": 2.0}, "target_val"),
    ({"target_test": ["t.csv"]}, "target_test"),
    ({"out_dir": 5}, "out_dir"),
    ({"prior_file": True}, "prior_file"),
    ({"out_dir": None}, "out_dir"),
    ({"target_val": ""}, "target_val"),
    ({"prior_file": ""}, "prior_file"),
    ({"out_dir": ""}, "out_dir"),
    ({"bins": 2}, "bins"),
    ({"bin_counts": [40, 2]}, "bin_counts"),
    ({"methods": ["tl"], "bin_counts": [2]}, "bin_counts"),
    ({"seed": -1}, "seed"),
    ({"seeds": [0, -1]}, "seeds"),
    ({"scenario": [1]}, "scenario"),
    ({"methods": []}, "methods"),
    ({"label_fractions": []}, "label_fractions"),
    ({"alphas": []}, "alphas"),
    ({"bin_counts": []}, "bin_counts"),
    ({"seeds": []}, "seeds"),
    ({"scenario": {**SCENARIO, "noise_std": math.nan}}, "noise_std"),
    ({"scenario": {**SCENARIO, "noise_std": "0.1"}}, "noise_std"),
    ({"scenario": {**SCENARIO, "shift_scale": math.nan}}, "shift_scale"),
    ({"scenario": {**SCENARIO, "shift_mean": [0, 1, 2]}}, "shift_mean"),
    ({"scenario": {**SCENARIO, "shift_mean": math.inf}}, "shift_mean"),
    ({"prior_form": "uniform"}, "prior_form"),
], ids=["alpha", "c", "batch_size", "epochs", "model_selection", "naive-alpha",
        "alphas", "label_fractions", "methods", "learning_rate", "learning_rate-nan", "alpha-nan",
        "c-nan", "epochs-float", "batch_size-float", "bins-float", "bin_counts-float",
        "seed-float", "seeds-float", "epochs-bool", "n_strata", "hidden_layers-float",
        "hidden_layers-number", "hidden_layers-zero", "val_fraction-zero",
        "val_fraction-negative", "val_fraction-one", "bias_keep_above", "seeds-number",
        "alphas-number", "methods-string", "alpha-string", "c-string",
        "learning_rate-string", "label_fraction-string", "val_fraction-string",
        "bias_keep_above-string", "alpha-bool",
        "label_fraction-bool", "alphas-string", "label_fractions-bool", "source_train-number",
        "source_checkpoint-number", "target_train-number", "target_val-float",
        "target_test-list", "out_dir-number", "prior_file-bool", "out_dir-null", "target_val-empty",
        "prior_file-empty", "out_dir-empty", "bins-floor",
        "bin_counts-floor", "tl-bin_counts-floor", "seed-negative", "seeds-negative",
        "scenario-list", "methods-empty", "label_fractions-empty", "alphas-empty",
        "bin_counts-empty", "seeds-empty", "noise_std-nan", "noise_std-string", "shift_scale-nan",
        "shift_mean-not-d-entries", "shift_mean-inf", "prior_form-uniform"])
def test_config_rejects_a_bad_fit_setting_when_built(overrides, field):
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        ExperimentConfig(**overrides)


@pytest.mark.parametrize("key,value", [("pseudo_source", "true_labels_for_labeled"),
                                       ("activation", "tanh"), ("prior_source", "file"),
                                       ("bias_threshold_quantile", 0.5), ("prior_gaussians", 2),
                                       ("prior_exponentials", 1), ("prior_bins", 10)],
                         ids=["pseudo_source", "activation", "prior_source",
                              "bias_threshold_quantile", "prior_gaussians", "prior_exponentials",
                              "prior_bins"])
def test_config_rejects_a_removed_key(key, value):
    with pytest.raises(TypeError, match=rf"\b{key}\b"):
        ExperimentConfig(**{key: value})


def test_config_builds_its_scenario_from_a_dict():
    spec = default_scenario(seed=3, d=2)
    cfg = ExperimentConfig(scenario=spec.to_dict())
    assert isinstance(cfg.scenario, GeneratorSpec)
    assert cfg.scenario.to_dict() == spec.to_dict()


class TestSynthCommand:
    def test_writes_splits_and_sidecar(self, tmp_path):
        spec = default_scenario(seed=1, d=2, n_source=20, n_target_train=15,
                                n_target_val=5, n_target_test=5)
        paths = run_synth(ExperimentConfig(scenario=spec, out_dir=str(tmp_path)))
        for name, n in [("source", 20), ("target_train", 15), ("target_val", 5), ("target_test", 5)]:
            ds = load_csv(paths[name])
            assert ds.n == n and ds.d == 2
        sidecar = json.loads((tmp_path / "scenario.json").read_text())
        assert sidecar["d"] == 2 and sidecar["seed"] == 1


class TestTrainSource:
    def test_checkpoint_is_loadable_and_fits(self, tiny_workspace):
        ckpt = load_checkpoint(tiny_workspace["checkpoint"])
        assert ckpt.scaler is not None
        assert ckpt.params.spec.input_dim == 3
        # a trained source model should comfortably beat the label spread
        assert tiny_workspace["source_val_rmse"] < 1.0

    def test_needs_a_source_train_csv(self, tmp_path):
        cfg = ExperimentConfig(scenario=default_scenario(seed=1, d=2), out_dir=str(tmp_path))
        with pytest.raises(ValueError, match="source_train"):
            run_train_source(cfg)
        assert list(tmp_path.iterdir()) == []


class TestAdapt:
    def test_tl_equals_craft_alpha_zero(self, tiny_workspace, tmp_path):
        cfg_tl = adapt_config(tiny_workspace, tmp_path, method="tl")
        cfg_craft = adapt_config(tiny_workspace, tmp_path, method="craft", alpha=0.0)
        report_tl = run_adapt(cfg_tl)
        report_craft = run_adapt(cfg_craft)
        assert report_tl["rmse"] == report_craft["rmse"]

    def test_report_validates_against_schema(self, tiny_workspace, tmp_path):
        for method in ("craft", "tl", "naive"):
            report = run_adapt(adapt_config(tiny_workspace, tmp_path / method, method=method))
            report.pop("report_path")
            jsonschema.validate(instance=report, schema=RUN_REPORT_SCHEMA)

    def test_the_schema_describes_every_report_field(self):
        names = [f.name for f in dataclasses.fields(RunReport)]
        assert RUN_REPORT_SCHEMA["required"] == names
        assert set(names) <= RUN_REPORT_SCHEMA["properties"].keys()

    def test_reports_are_reproducible(self, tiny_workspace, tmp_path):
        cfg_a = adapt_config(tiny_workspace, tmp_path / "a", method="craft")
        cfg_b = adapt_config(tiny_workspace, tmp_path / "b", method="craft")
        a, b = run_adapt(cfg_a), run_adapt(cfg_b)
        for report in (a, b):
            report.pop("report_path")
        assert a == b

    def test_source_files_never_opened(self, tiny_workspace, tmp_path, monkeypatch):
        cfg = adapt_config(tiny_workspace, tmp_path, method="craft")
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        report = run_adapt(cfg)
        source_csv = tiny_workspace["paths"]["source"]
        assert all(source_csv not in path for path in opened)
        assert all(source_csv not in path for path in report["files_opened"])
        assert any(tiny_workspace["checkpoint"] in path for path in report["files_opened"])

    def test_bias_injected_target_adapts(self, tiny_workspace, tmp_path):
        cfg = adapt_config(tiny_workspace, tmp_path, method="craft",
                           bias_keep_above=0.2, label_fraction=0.4, model_selection="final")
        report = run_adapt(cfg)
        assert report["rmse"] > 0
        assert sum(report["pseudo_label_hist"]) > 0

    def test_final_epoch_selection_ignores_the_validation_set(self, tiny_workspace, tmp_path):
        final = run_adapt(adapt_config(tiny_workspace, tmp_path / "final", model_selection="final"))
        no_val = run_adapt(adapt_config(tiny_workspace, tmp_path / "no_val", target_val=None))
        for report in (final, no_val):
            report.pop("files_opened")
            report.pop("report_path")
        assert final == no_val

    def test_validation_selects_on_its_labeled_rows(self, tiny_workspace, tmp_path):
        val = load_csv(tiny_workspace["paths"]["target_val"]).subset(np.arange(60))
        labeled = np.zeros(val.n, dtype=bool)
        labeled[::3] = True  # 20 of the 60 rows
        partial, only_labeled = tmp_path / "partial.csv", tmp_path / "labeled.csv"
        write_csv(Dataset(val.features, np.where(labeled, val.labels, np.nan)), partial)
        write_csv(val.subset(np.flatnonzero(labeled)), only_labeled)
        reports = []
        # at this seed and rate the best epoch is not the last, which a run without
        # target_val keeps; so a validation set that scored NaN would show
        for path in (partial, only_labeled, None):
            cfg = adapt_config(tiny_workspace, tmp_path / (path.stem if path else "final"),
                               target_val=path and str(path), seed=5, learning_rate=1e-2)
            report = run_adapt(cfg)
            report.pop("files_opened")
            report.pop("report_path")
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[1]["rmse"] != reports[2]["rmse"]

    def test_validation_set_without_a_label_is_rejected(self, tiny_workspace, tmp_path):
        val = load_csv(tiny_workspace["paths"]["target_val"])
        unlabeled = tmp_path / "unlabeled.csv"
        write_csv(Dataset(val.features, np.full(val.n, np.nan)), unlabeled)
        with pytest.raises(ValueError, match="target_val"):
            run_adapt(adapt_config(tiny_workspace, tmp_path, target_val=str(unlabeled)))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("split,overrides,reason", [
        ("target_test", {"method": "craft"}, "the run is scored on it"),
        ("target_test", {"method": "naive"}, "the run is scored on it"),
        ("target_train", {"label_fraction": 0.5}, "label_fraction 0.5 drops its labels"),
        ("target_train", {"label_fraction": 1.0, "bias_keep_above": 0.3},
         "bias_keep_above 0.3 drops its labels"),
    ], ids=["test-craft", "test-naive", "train-label_fraction", "train-bias_keep_above"])
    def test_a_partly_labeled_split_fails_naming_it_before_any_fit(
            self, tiny_workspace, tmp_path, monkeypatch, split, overrides, reason):
        path = partly_labeled(tiny_workspace, split, tmp_path)
        fits = []
        for fit in ("fit_craft", "fit_tl"):
            monkeypatch.setattr(f"craft.harness.{fit}", lambda *args, **kwargs: fits.append(1))
        cfg = adapt_config(tiny_workspace, tmp_path, **{split: path}, **overrides)
        with pytest.raises(ValueError, match=re.escape(f"{split} {path} has 1 of ")) as error:
            run_adapt(cfg)
        assert str(error.value).endswith(f"rows unlabeled, but must be fully labeled: {reason}")
        assert fits == [] and not (tmp_path / "out").exists()

    def test_prior_file_round_trip(self, tiny_workspace, tmp_path):
        prior_cfg = ExperimentConfig(target_train=tiny_workspace["paths"]["target_train"],
                                     out_dir=str(tmp_path / "prior"), prior_form="mixture")
        produced = run_fit_prior(prior_cfg)
        cfg = adapt_config(tiny_workspace, tmp_path, method="craft", prior_file=produced["prior"])
        report = run_adapt(cfg)
        assert report["rmse"] > 0
        assert report.pop("files_opened")[-1] == produced["prior"]
        report.pop("report_path")
        # the run adapts with the file's prior, not one fitted to the labeled rows
        with open(produced["prior"], encoding="utf-8") as fh:
            prior = prior_from_dict(json.load(fh))
        given = adapt_in_memory(*inputs(tiny_workspace), cfg, prior=prior)
        fitted = adapt_in_memory(*inputs(tiny_workspace), cfg)
        assert report == given
        assert given["pseudo_label_hist"] != fitted["pseudo_label_hist"]

    @pytest.mark.parametrize("label_fraction,bias_keep_above", [(1.0, None), (0.3, None),
                                                                (1.0, 0.3), (0.3, 0.3)],
                             ids=["all-labels", "fraction", "bias", "bias-then-fraction"])
    def test_a_fit_prior_file_reproduces_the_runs_own_prior(self, tiny_workspace, tmp_path,
                                                             monkeypatch, label_fraction,
                                                             bias_keep_above):
        # every label positive, so the fit cannot lean on where zero falls
        shifted = {}
        for split in ("target_train", "target_val", "target_test"):
            ds = load_csv(tiny_workspace["paths"][split])
            shifted[split] = str(tmp_path / f"{split}.csv")
            write_csv(Dataset(ds.features, ds.labels + 10.0), shifted[split])
        budget = {"label_fraction": label_fraction, "bias_keep_above": bias_keep_above}
        produced = run_fit_prior(ExperimentConfig(target_train=shifted["target_train"],
                                                  out_dir=str(tmp_path / "prior"), seed=3,
                                                  **budget))
        model_priors = []

        def capture(params, train, config, val=None):
            model_priors.append(prior_to_dict(config.prior))
            return fit_craft(params, train, config, val=val)

        monkeypatch.setattr("craft.harness.fit_craft", capture)
        reports = []
        for prior_file in (produced["prior"], None):
            cfg = adapt_config(tiny_workspace, tmp_path, **shifted, **budget, prior_file=prior_file)
            report = run_adapt(cfg)
            del report["files_opened"], report["report_path"]
            reports.append(report)
        # only a prior the run fits itself has an EM fit to report
        assert [r.pop("em_iters") is None for r in reports] == [True, False]
        assert [r.pop("em_converged") is None for r in reports] == [True, False]
        assert model_priors[0] == model_priors[1]
        assert reports[0] == reports[1]

    def test_the_report_records_the_em_fit_of_the_prior_it_fits(self, tiny_workspace, tmp_path,
                                                                monkeypatch):
        fitted = []

        def spy(*args, **kwargs):
            fitted.append(em_fit(*args, **kwargs))
            return fitted[-1]

        monkeypatch.setattr("craft.priors.em_fit", spy)
        file_prior = prior_from_dict({"kind": "histogram", "edges": [-3.0, 3.0], "probs": [1.0]})
        runs = {"capped": {"label_fraction": 1.0}, "converged": {},
                "histogram": {"prior_form": "histogram"}, "tl": {"method": "tl"},
                "naive": {"method": "naive"}, "file": {}}
        reports = {name: adapt_in_memory(*inputs(tiny_workspace),
                                         adapt_config(tiny_workspace, tmp_path, epochs=1, **change),
                                         prior=file_prior if name == "file" else None)
                   for name, change in runs.items()}
        paths = [fit.loglik_path for fit in fitted]
        cap, tol = priors.EM_MAX_ITERS, priors.EM_TOL
        assert [len(path) for path in paths] == [cap, 320]  # the first hits em_fit's iteration cap
        assert [(reports[name]["em_iters"], reports[name]["em_converged"])
                for name in runs] == [(cap, False), (320, True)] + [(None, None)] * 4
        assert paths[0][-1] - paths[0][-2] >= tol > paths[1][-1] - paths[1][-2]

    def test_a_fit_stopping_on_em_tol_at_its_last_allowed_iteration_reports_converged(
            self, tiny_workspace, tmp_path, monkeypatch):
        # the converged fit above stops on EM_TOL at its 320th iteration, so a cap of 320
        # iterations still lets it converge; the capped fit above still has not
        monkeypatch.setattr(priors, "EM_MAX_ITERS", 320)
        reports = [adapt_in_memory(*inputs(tiny_workspace),
                                   adapt_config(tiny_workspace, tmp_path, epochs=1, **change))
                   for change in ({}, {"label_fraction": 1.0})]
        assert [(r["em_iters"], r["em_converged"]) for r in reports] == [(320, True), (320, False)]

    def test_a_naive_run_scales_no_split(self, tiny_workspace, tmp_path, monkeypatch):
        scaled = []

        def spy(ds, scaler):
            scaled.append(ds)
            return apply_scaler(ds, scaler)

        monkeypatch.setattr("craft.harness.apply_scaler", spy)
        checkpoint, train, val, test = inputs(tiny_workspace)
        cfg = adapt_config(tiny_workspace, tmp_path, method="naive")
        report = adapt_in_memory(checkpoint, train, val, test, cfg)
        assert scaled == []
        budget = _label_budget(train, cfg)
        mean = budget.labels[budget.labeled].mean()
        assert report["rmse"] == rmse(np.full(test.n, mean), test.labels)
        adapt_in_memory(checkpoint, train, val, test, dataclasses.replace(cfg, method="tl"))
        assert len(scaled) == 2  # a fit scales its train and val splits

    @pytest.mark.parametrize("method", ["craft", "naive"])
    def test_a_seed_argument_runs_the_config_with_that_seed(self, tiny_workspace, tmp_path,
                                                            method):
        cfg = adapt_config(tiny_workspace, tmp_path, method=method, epochs=1, bias_keep_above=0.5)
        given = adapt_in_memory(*inputs(tiny_workspace), cfg, seed=7)
        assert given == adapt_in_memory(*inputs(tiny_workspace), dataclasses.replace(cfg, seed=7))
        assert given["seed"] == 7 and given != adapt_in_memory(*inputs(tiny_workspace), cfg)

    def test_a_given_prior_opens_no_file(self, tiny_workspace, tmp_path, monkeypatch):
        prior = prior_from_dict({"kind": "histogram", "edges": [-3.0, 3.0], "probs": [1.0]})
        loaded = inputs(tiny_workspace)
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        report = adapt_in_memory(*loaded, adapt_config(tiny_workspace, tmp_path), prior=prior)
        assert math.isfinite(report["rmse"]) and sum(report["pseudo_label_hist"]) > 0
        assert opened == []

    @pytest.mark.parametrize("method,prior,labeled_rows", [
        ("tl", None, [4]),
        ("tl", None, [4, 9]),
        ("craft", FLAT_PRIOR, [4]),
        ("craft", FLAT_PRIOR, [4, 9]),
    ], ids=["tl-one-row", "tl-one-value", "craft-flat-one-row", "craft-flat-one-value"])
    def test_labels_without_a_range_fall_back_to_the_scaler_range(
            self, tiny_workspace, tmp_path, method, prior, labeled_rows):
        # one labeled row, or labeled rows sharing one label, span no grid
        train = load_csv(tiny_workspace["paths"]["target_train"])
        labels = train.labels.copy()
        labels[labeled_rows] = labels[labeled_rows[0]]
        labeled = np.zeros(train.n, dtype=bool)
        labeled[labeled_rows] = True
        partial = Dataset(train.features, np.where(labeled, labels, np.nan))
        cfg = adapt_config(tiny_workspace, tmp_path, method=method, label_fraction=1.0)
        report = adapt_in_memory(load_checkpoint(tiny_workspace["checkpoint"]), partial,
                                 load_csv(tiny_workspace["paths"]["target_val"]),
                                 load_csv(tiny_workspace["paths"]["target_test"]), cfg,
                                 prior=prior)
        assert math.isfinite(report["rmse"])
        assert report["bins"] == (cfg.bins if method == "craft" else None)

    @pytest.mark.parametrize("method,alpha,prior", [
        ("tl", 0.1, None), ("naive", 0.1, None), ("craft", 0.0, FLAT_PRIOR), ("craft", 0.1, None),
    ], ids=["tl", "naive", "craft-alpha-0", "craft-fitted-prior"])
    def test_a_budget_without_a_labeled_row_fails_naming_the_setting(
            self, tiny_workspace, tmp_path, method, alpha, prior):
        # 1% of 30-row label strata rounds to no labeled row
        cfg = adapt_config(tiny_workspace, tmp_path, method=method, alpha=alpha, label_fraction=0.01)
        with pytest.raises(ValueError, match=r"^label_fraction 0\.01 with n_strata 10 leaves no "
                                             r"labeled row of 300 target_train rows;"):
            adapt_in_memory(*inputs(tiny_workspace), cfg, prior=prior)

    @pytest.mark.parametrize("method", ["craft", "tl"])
    def test_the_fit_sees_every_dropped_label_as_nan(self, tiny_workspace, tmp_path, monkeypatch,
                                                     method):
        targets = []

        def capturing(fit):
            def capture(params, target, config, val=None):
                targets.append(target)
                return fit(params, target, config, val=val)
            return capture

        monkeypatch.setattr("craft.harness.fit_craft", capturing(fit_craft))
        monkeypatch.setattr("craft.harness.fit_tl", capturing(fit_tl))
        checkpoint, train, val, test = inputs(tiny_workspace)
        cfg = adapt_config(tiny_workspace, tmp_path, method=method, label_fraction=0.1, epochs=1)
        adapt_in_memory(checkpoint, train, val, test, cfg)
        [target] = targets
        kept = target.labeled
        assert kept.sum() == 30
        assert np.isnan(target.labels[~kept]).all()
        np.testing.assert_array_equal(target.labels[kept],
                                      checkpoint.scaler.scale_labels(train.labels[kept]))

    def test_a_mixture_budget_with_two_labels_fails_naming_it(self, tiny_workspace, tmp_path):
        cfg = adapt_config(tiny_workspace, tmp_path, epochs=1, **TWO_LABELS)
        with pytest.raises(ValueError) as error:
            adapt_in_memory(*inputs(tiny_workspace), cfg)
        assert str(error.value) == two_labels_message()
        report = adapt_in_memory(*inputs(tiny_workspace),
                                 dataclasses.replace(cfg, prior_form="histogram"))
        assert math.isfinite(report["rmse"])

    def test_craft_with_a_prior_runs_without_a_labeled_row(self, tiny_workspace, tmp_path):
        cfg = adapt_config(tiny_workspace, tmp_path, label_fraction=0.01, epochs=1)
        report = adapt_in_memory(*inputs(tiny_workspace), cfg, prior=FLAT_PRIOR)
        assert math.isfinite(report["rmse"])

    def test_a_grid_over_no_label_range_keeps_a_margin_bin(self, tiny_workspace, tmp_path,
                                                           monkeypatch):
        train = load_csv(tiny_workspace["paths"]["target_train"])
        labeled = np.zeros(train.n, dtype=bool)
        labeled[4] = True
        grids = []

        def capture(params, target, config, val=None):
            grids.append(config.grid)
            return fit_craft(params, target, config, val=val)

        monkeypatch.setattr("craft.harness.fit_craft", capture)
        cfg = adapt_config(tiny_workspace, tmp_path, label_fraction=1.0, bins=12, epochs=1)
        adapt_in_memory(load_checkpoint(tiny_workspace["checkpoint"]),
                        Dataset(train.features, np.where(labeled, train.labels, np.nan)), None,
                        load_csv(tiny_workspace["paths"]["target_test"]), cfg, prior=FLAT_PRIOR)
        # the scaler's label range [-1, 1] with one 0.2-wide bin on each side
        [grid] = grids
        assert (grid.lo, grid.hi, grid.count) == (pytest.approx(-1.2), pytest.approx(1.2), 12)
        assert grid == make_bin_grid(12, (-1.0, 1.0))

    def test_wrong_dimension_checkpoint_errors(self, tiny_workspace, tmp_path):
        spec = default_scenario(seed=2, d=5, n_source=30, n_target_train=30,
                                n_target_val=10, n_target_test=10)
        other = run_synth(ExperimentConfig(scenario=spec, out_dir=str(tmp_path / "other")))
        cfg = adapt_config(tiny_workspace, tmp_path, target_train=other["target_train"],
                           target_val=None, target_test=other["target_test"])
        with pytest.raises(ValueError, match="features"):
            run_adapt(cfg)

    @pytest.mark.parametrize("split", ["target_val", "target_test"])
    def test_a_split_missing_a_feature_fails_naming_it_before_any_epoch(
            self, tiny_workspace, tmp_path, monkeypatch, split):
        full = load_csv(tiny_workspace["paths"][split])
        narrow = tmp_path / "narrow.csv"
        write_csv(Dataset(full.features[:, :-1], full.labels), narrow)
        fits = []
        monkeypatch.setattr("craft.harness.fit_craft", lambda *args, **kwargs: fits.append(1))
        with pytest.raises(ValueError, match=rf"^checkpoint expects 3 features, {split} "
                                             rf"{re.escape(str(narrow))} has 2$"):
            run_adapt(adapt_config(tiny_workspace, tmp_path, **{split: str(narrow)}))
        assert fits == []

    @pytest.mark.parametrize("payload,named", [
        ({"kind": "mixture"}, "mixture prior has no key 'weights'"),
        ([0.5, 0.5], "a prior is a JSON object, not a list"),
        ({"kind": "mixture", "weights": [1.0], "gaussians": [[0.0]]},
         "mixture prior gaussians must be [mean, variance] pairs"),
        ({"kind": "mixture", "weights": [1.0], "gaussians": [0.0]},
         "mixture prior gaussians must be [mean, variance] pairs"),
        ({"kind": "mixture", "weights": [math.nan], "gaussians": [[0.0, 1.0]]},
         "weights holds nan, not a finite number"),
        ({"kind": "mixture", "weights": [1.0], "gaussians": [[math.nan, 1.0]]},
         "gaussians holds nan, not a finite number"),
        ({"kind": "mixture", "weights": [1.0], "gaussians": [[0.0, math.inf]]},
         "gaussians holds inf, not a finite number"),
        ({"kind": "mixture", "weights": [1.0], "gaussians": [[0.0, 1.0]], "offset": math.nan},
         "offset holds nan, not a finite number"),
        ({"kind": "mixture", "weights": [1.0], "gaussians": [[0.0, 1.0]], "offset": "2"},
         "offset holds '2', not a finite number"),
        ({"kind": "mixture", "weights": [True], "gaussians": [[0.0, 1.0]]},
         "weights holds True, not a finite number"),
        ({"kind": "histogram", "edges": [0.0, math.nan], "probs": [1.0]},
         "edges holds nan, not a finite number"),
        ({"kind": "histogram", "edges": [0.0, math.inf], "probs": [1.0]},
         "edges holds inf, not a finite number"),
        ({"kind": "histogram", "edges": [0.0, 1.0], "probs": [math.inf]},
         "probs holds inf, not a finite number"),
    ])
    def test_a_malformed_prior_file_fails_naming_the_file(self, tiny_workspace, tmp_path,
                                                          payload, named):
        path = tmp_path / "prior.json"
        path.write_text(json.dumps(payload))
        cfg = adapt_config(tiny_workspace, tmp_path, prior_file=str(path))
        with pytest.raises(ValueError, match=re.escape(f"prior file {path}: {named}")):
            run_adapt(cfg)


class TestSweep:
    def test_rows_reproducible_and_aggregates_recomputable(self, tiny_workspace, tmp_path):
        def sweep_into(out):
            cfg = adapt_config(tiny_workspace, tmp_path, out_dir=str(out), epochs=4)
            cfg = dataclasses.replace(cfg, methods=["tl", "craft"], seeds=[0, 1],
                                      label_fractions=[0.2], alphas=[0.1], bin_counts=[40])
            return run_sweep(cfg), out

        report_a, out_a = sweep_into(tmp_path / "s1")
        report_b, out_b = sweep_into(tmp_path / "s2")
        assert report_a == report_b
        # aggregates equal a recomputation from the row data
        assert report_a["aggregates"] == aggregate_sweep_rows(report_a["rows"])
        lines = (out_a / "runs.jsonl").read_text().splitlines()
        assert len(lines) == len(report_a["rows"]) + 1
        assert "aggregates" in json.loads(lines[-1])
        assert (out_a / "runs.csv").read_text().splitlines()[0].startswith("method,seed,alpha")

    def test_aggregates_sort_by_value(self):
        rows = [{"method": "craft", "seed": 0, "label_fraction": 0.1, "alpha": alpha,
                 "bins": bins, "rmse": 1.0, "pbcor": 0.5}
                for alpha, bins in [(10.0, 200), (10.0, 50), (5.0, 200), (5.0, 50), (0.0, None)]]
        assert [(a["alpha"], a["bins"]) for a in aggregate_sweep_rows(rows)] == [
            (0.0, None), (5.0, 50), (5.0, 200), (10.0, 50), (10.0, 200)]

    def test_partial_failures_recorded(self, tiny_workspace, tmp_path):
        # 1% of 30-row label strata rounds to no labeled row, so that cell has
        # nothing to fit its prior to
        cfg = adapt_config(tiny_workspace, tmp_path, out_dir=str(tmp_path / "s"), epochs=2)
        cfg = dataclasses.replace(cfg, methods=["craft"], seeds=[0], label_fractions=[0.01, 0.2])
        report = run_sweep(cfg)
        errors = [r for r in report["rows"] if "error" in r]
        good = [r for r in report["rows"] if "error" not in r]
        assert len(errors) == 1 and len(good) == 1
        assert errors[0]["label_fraction"] == 0.01
        assert errors[0]["error"] == (
            "ValueError: label_fraction 0.01 with n_strata 10 leaves no labeled row of 300 "
            "target_train rows; only craft at alpha > 0 with a prior file runs without one")

    def test_a_mixture_budget_with_two_labels_is_an_error_row(self, tiny_workspace, tmp_path):
        cfg = adapt_config(tiny_workspace, tmp_path, out_dir=str(tmp_path / "s"), epochs=1,
                           methods=["craft"], seeds=[0], **TWO_LABELS)
        [row] = run_sweep(cfg)["rows"]
        assert row["error"] == "ValueError: " + two_labels_message()

    def test_tl_ignores_a_bin_count_it_never_reads(self, tiny_workspace, tmp_path):
        cfg = adapt_config(tiny_workspace, tmp_path, out_dir=str(tmp_path / "s"), epochs=2)
        report = run_sweep(dataclasses.replace(cfg, methods=["tl"], seeds=[0], bin_counts=[3, 40]))
        [row] = report["rows"]
        assert "error" not in row
        assert (row["bins"], row["pseudo_label_hist"]) == (None, [])

    def test_a_prior_file_is_read_once(self, tiny_workspace, tmp_path, monkeypatch):
        prior = run_fit_prior(ExperimentConfig(target_train=tiny_workspace["paths"]["target_train"],
                                               out_dir=str(tmp_path / "prior")))["prior"]
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        cfg = adapt_config(tiny_workspace, tmp_path, out_dir=str(tmp_path / "s"), epochs=2,
                           prior_file=prior)
        report = run_sweep(dataclasses.replace(cfg, methods=["craft"], alphas=[0.1, 1.0],
                                               seeds=[0]))
        assert [row["alpha"] for row in report["rows"] if "error" not in row] == [0.1, 1.0]
        assert opened.count(prior) == 1

    def test_each_distinct_fit_runs_once(self, tiny_workspace, tmp_path):
        cfg = adapt_config(tiny_workspace, tmp_path, out_dir=str(tmp_path / "s"), epochs=2)
        report = run_sweep(dataclasses.replace(cfg, methods=["craft", "tl", "naive"],
                                               alphas=[0.1, 1.0], seeds=[0]))
        cells = [(r["method"], r["alpha"], r["bins"]) for r in report["rows"]]
        assert cells == [("craft", 0.1, 60), ("craft", 1.0, 60), ("tl", 0.0, None),
                         ("naive", 0.0, None)]
        assert [a["n_runs"] for a in report["aggregates"]] == [1, 1, 1, 1]


class TestWholeFileWrites:
    def test_every_write_goes_to_a_temp_file(self, tmp_path, monkeypatch):
        writes = []
        real_open = builtins.open

        def spy(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                writes.append(str(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        spec = default_scenario(seed=2, d=2, n_source=60, n_target_train=40,
                                n_target_val=10, n_target_test=10)
        paths = run_synth(ExperimentConfig(scenario=spec, out_dir=str(tmp_path / "data")))
        trained = run_train_source(ExperimentConfig(source_train=paths["source"], epochs=2,
                                                    out_dir=str(tmp_path / "source")))
        prior = run_fit_prior(ExperimentConfig(target_train=paths["target_train"],
                                               out_dir=str(tmp_path / "prior")))
        cfg = ExperimentConfig(source_checkpoint=trained["checkpoint"],
                               target_train=paths["target_train"], target_val=paths["target_val"],
                               target_test=paths["target_test"], out_dir=str(tmp_path / "adapt"),
                               epochs=2, bins=20, label_fraction=0.5,
                               prior_file=prior["prior"])
        run_adapt(cfg)
        run_sweep(dataclasses.replace(cfg, out_dir=str(tmp_path / "sweep"),
                                      methods=["craft", "tl", "naive"], bin_counts=[3, 20]))
        # 13 files, runs.jsonl among them written once per sweep cell (4: craft at each
        # bin count, tl and naive once) and once more
        assert len(writes) == 17 and all(path.endswith(".tmp") for path in writes)
        files = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
        assert files == {
            "data/source.csv", "data/target_train.csv", "data/target_val.csv",
            "data/target_test.csv", "data/scenario.json",
            "source/source_checkpoint.json", "source/source_report.json",
            "prior/prior.json", "prior/prior_density.csv",
            "adapt/report_craft_seed0.json",
            "sweep/runs.jsonl", "sweep/runs.csv", "sweep/sweep_report.json",
        }

    def test_interrupted_sweep_keeps_the_finished_row_whole(self, tiny_workspace, tmp_path,
                                                            monkeypatch):
        cfg = dataclasses.replace(adapt_config(tiny_workspace, tmp_path, epochs=2),
                                  methods=["tl"], seeds=[0, 1, 2])
        run_sweep(cfg)  # an earlier, finished sweep into the same directory
        finished = []

        def adapt_then_interrupt(*args, **kwargs):
            if finished:
                raise KeyboardInterrupt
            finished.append(adapt_in_memory(*args, **kwargs))
            return finished[-1]

        monkeypatch.setattr("craft.harness.adapt_in_memory", adapt_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(dataclasses.replace(cfg, seeds=[0, 1]))
        out = tmp_path / "out"
        assert (out / "runs.jsonl").read_text() == json.dumps(finished[0]) + "\n"
        assert [p.name for p in out.iterdir()] == ["runs.jsonl"]


class TestNonFiniteGradient:
    @pytest.fixture(autouse=True)
    def nan_gradients(self, monkeypatch):
        def nan_backward(params, upstream, cache, grads):
            backward(params, upstream, cache, grads)
            grads.vector[:] = np.nan

        monkeypatch.setattr("craft.engine.backward", nan_backward)

    def test_adapt_names_the_block_and_writes_no_report(self, tiny_workspace, tmp_path):
        with pytest.raises(ValueError, match="non-finite gradient in layer 0 weights"):
            run_adapt(adapt_config(tiny_workspace, tmp_path, epochs=2))
        assert not (tmp_path / "out").exists()

    def test_sweep_records_an_error_row_and_writes_its_files(self, tiny_workspace, tmp_path):
        cfg = dataclasses.replace(adapt_config(tiny_workspace, tmp_path, epochs=2),
                                  methods=["craft", "naive"])
        report = run_sweep(cfg)
        craft_row, naive_row = report["rows"]
        assert craft_row["error"] == "ValueError: non-finite gradient in layer 0 weights"
        assert "error" not in naive_row  # the naive baseline takes no gradient step
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == ["runs.csv", "runs.jsonl", "sweep_report.json"]
        assert len((out / "runs.jsonl").read_text().splitlines()) == 3
        assert len((out / "runs.csv").read_text().splitlines()) == 3


class TestFitPrior:
    @pytest.mark.parametrize("prior_form", ["mixture", "histogram"])
    def test_density_curve_matches_log_density(self, tiny_workspace, tmp_path, prior_form):
        cfg = ExperimentConfig(target_train=tiny_workspace["paths"]["target_train"],
                               out_dir=str(tmp_path), prior_form=prior_form, seed=4)
        produced = run_fit_prior(cfg)
        prior = prior_from_dict(json.loads((tmp_path / "prior.json").read_text()))
        rows = (tmp_path / "prior_density.csv").read_text().splitlines()[1:]
        assert len(rows) == 256
        for line in rows[::17]:
            y, logd, dens = (float(v) for v in line.split(","))
            expected = prior_log_density(prior, y)
            assert logd == expected or abs(expected - logd) < 1e-12  # equal when both are -inf
            assert abs(math.exp(logd) - dens) < 1e-12

    def test_labels_sharing_one_value_get_a_unit_width_span(self, tmp_path):
        data = tmp_path / "labels.csv"
        data.write_text("f0,y,labeled\n0.1,2.0,1\n0.2,2.0,1\n0.3,,0\n")
        run_fit_prior(ExperimentConfig(target_train=str(data), out_dir=str(tmp_path / "out"),
                                       prior_form="histogram"))
        prior = prior_from_dict(json.loads((tmp_path / "out" / "prior.json").read_text()))
        assert prior_log_density(prior, np.array([1.5, 2.0, 2.5])).tolist() == [0.0, 0.0, 0.0]
        assert prior_log_density(prior, 1.49) == prior_log_density(prior, 2.51) == -np.inf

    def test_a_partly_labeled_csv_under_a_label_budget_fails_naming_it(self, tiny_workspace,
                                                                        tmp_path):
        path = partly_labeled(tiny_workspace, "target_train", tmp_path)
        n = load_csv(path).n
        cfg = ExperimentConfig(target_train=path, out_dir=str(tmp_path / "out"), label_fraction=0.3)
        with pytest.raises(ValueError) as error:
            run_fit_prior(cfg)
        assert str(error.value) == (f"target_train {path} has 1 of {n} rows unlabeled, but must be "
                                    "fully labeled: label_fraction 0.3 drops its labels")
        assert not (tmp_path / "out" / "prior.json").exists()

    @pytest.mark.parametrize("prior_form", ["mixture", "histogram"])
    def test_a_budget_with_no_labeled_row_fails_naming_it_before_any_file(
            self, tiny_workspace, tmp_path, capsys, prior_form):
        # 1% of 30-row label strata rounds to no labeled row, as adapt reports it
        path = tiny_workspace["paths"]["target_train"]
        message = (f"label_fraction 0.01 with n_strata 10 leaves no labeled row of 300 target_train "
                   f"rows in {path}; the prior is fitted to labels")
        with pytest.raises(ValueError) as error:
            run_fit_prior(ExperimentConfig(target_train=path, out_dir=str(tmp_path / "out"),
                                           label_fraction=0.01, prior_form=prior_form))
        assert str(error.value) == message
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"label_fraction": 0.01, "prior_form": prior_form}))
        assert main(["fit-prior", "--config", str(cfg_path), "--data", path,
                     "--out", str(tmp_path / "out")]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
        assert not (tmp_path / "out").exists()

    def test_a_mixture_budget_with_two_labels_fails_naming_it_before_any_file(
            self, tiny_workspace, tmp_path, capsys):
        path = tiny_workspace["paths"]["target_train"]
        cfg = adapt_config(tiny_workspace, tmp_path, **TWO_LABELS)
        with pytest.raises(ValueError) as error:
            run_fit_prior(cfg)
        assert str(error.value) == two_labels_message(f" in {path}")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({k: v for k, v in dataclasses.asdict(cfg).items()
                                        if v is not None}))
        for command, where in [("fit-prior", f" in {path}"), ("adapt", "")]:
            assert main([command, "--config", str(cfg_path)]) == 1
            assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                           "message": two_labels_message(where)}
        assert not (tmp_path / "out").exists()
        produced = run_fit_prior(dataclasses.replace(cfg, prior_form="histogram"))
        assert set(produced) == {"prior", "density_curve"}

    def test_failed_write_leaves_no_partial_file(self, tiny_workspace, tmp_path, monkeypatch):
        def failing_dump(obj, fh, **kwargs):
            fh.write('{"kind": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", failing_dump)
        cfg = ExperimentConfig(target_train=tiny_workspace["paths"]["target_train"],
                               out_dir=str(tmp_path))
        with pytest.raises(OSError, match="disk full"):
            run_fit_prior(cfg)
        assert list(tmp_path.iterdir()) == []


class TestEvaluateCommand:
    def test_scores_checkpoint(self, tiny_workspace):
        cfg = ExperimentConfig(source_checkpoint=tiny_workspace["checkpoint"],
                               target_test=tiny_workspace["paths"]["target_test"])
        result = run_evaluate(cfg)
        assert result["rmse"] > 0
        assert -1.0 <= result["pbcor"] <= 1.0

    def test_a_test_split_missing_a_feature_fails_naming_it(self, tiny_workspace, tmp_path):
        full = load_csv(tiny_workspace["paths"]["target_test"])
        narrow = tmp_path / "narrow.csv"
        write_csv(Dataset(full.features[:, :-1], full.labels), narrow)
        cfg = ExperimentConfig(source_checkpoint=tiny_workspace["checkpoint"], target_test=str(narrow))
        with pytest.raises(ValueError, match=rf"^checkpoint expects 3 features, target_test "
                                             rf"{re.escape(str(narrow))} has 2$"):
            run_evaluate(cfg)

    def test_a_partly_labeled_test_split_fails_naming_it(self, tiny_workspace, tmp_path):
        path = partly_labeled(tiny_workspace, "target_test", tmp_path)
        cfg = ExperimentConfig(source_checkpoint=tiny_workspace["checkpoint"], target_test=path)
        with pytest.raises(ValueError, match=re.escape(f"target_test {path} has 1 of ")):
            run_evaluate(cfg)


class TestCli:
    def test_synth_and_error_paths(self, tmp_path, capsys):
        spec = default_scenario(seed=1, d=2, n_source=12, n_target_train=12,
                                n_target_val=4, n_target_test=4)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": spec.to_dict()}))
        code = main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "d")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert (tmp_path / "d" / "source.csv").exists()
        assert out["scenario"].endswith("scenario.json")

        code = main(["adapt", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        captured = capsys.readouterr()
        assert code != 0
        err = json.loads(captured.err)
        assert err["error"] == "ValueError"
        assert "checkpoint" in err["message"]

    def test_full_pipeline_via_cli(self, tiny_workspace, tmp_path, capsys):
        ws = tiny_workspace
        cfg_path = tmp_path / "adapt.json"
        cfg_path.write_text(json.dumps({
            "source_checkpoint": ws["checkpoint"],
            "target_train": ws["paths"]["target_train"],
            "target_val": ws["paths"]["target_val"],
            "target_test": ws["paths"]["target_test"],
            "epochs": 4,
            "learning_rate": 1e-3,
            "bins": 40,
        }))
        code = main(["adapt", "--config", str(cfg_path), "--method", "craft",
                     "--label-fraction", "0.2", "--alpha", "0.1", "--seed", "2",
                     "--out", str(tmp_path / "run")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "craft" and report["seed"] == 2
        assert (tmp_path / "run" / "report_craft_seed2.json").exists()

        code = main(["evaluate", "--checkpoint", ws["checkpoint"],
                     "--data", ws["paths"]["target_test"]])
        assert code == 0
        assert "rmse" in json.loads(capsys.readouterr().out)

    def test_a_fit_prior_file_reproduces_adapts_own_prior_under_a_biased_budget(
            self, tiny_workspace, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = adapt_config(tiny_workspace, tmp_path, label_fraction=0.05, bias_keep_above=0.3)
        cfg_path.write_text(json.dumps({k: v for k, v in dataclasses.asdict(cfg).items()
                                        if v is not None}))
        prior_out = tmp_path / "prior"
        assert main(["fit-prior", "--config", str(cfg_path), "--out", str(prior_out)]) == 0
        reports = []
        for name, flags in [("file", ["--prior", str(prior_out / "prior.json")]), ("fit", [])]:
            capsys.readouterr()
            assert main(["adapt", "--config", str(cfg_path), *flags,
                         "--out", str(tmp_path / name)]) == 0
            report = json.loads(capsys.readouterr().out)
            del report["files_opened"], report["report_path"]
            reports.append(report)
        assert [r.pop("em_iters") is None for r in reports] == [True, False]
        assert [r.pop("em_converged") is None for r in reports] == [True, False]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("change,named", [({"n_source": 12.5}, "n_source"),
                                              ({"seed": "1"}, "seed"),
                                              ({"not_a_knob": 1}, "not_a_knob")],
                             ids=["float-count", "string-seed", "unknown-key"])
    def test_bad_scenario_file_exits_1_naming_the_key(self, tmp_path, capsys, change, named):
        scenario = default_scenario(seed=1, d=2, n_source=12, n_target_train=12,
                                    n_target_val=4, n_target_test=4).to_dict()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": {**scenario, **change}}))
        assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 1
        assert named in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "d").exists()

    def test_removed_prior_source_key_exits_1_naming_it(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"prior_source": "true_marginal"}))
        assert main(["adapt", "--config", str(cfg_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TypeError"
        assert "prior_source" in err["message"]

    def test_null_out_dir_exits_1_naming_it(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"out_dir": None}))
        assert main(["synth", "--config", str(cfg_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "out_dir" in err["message"]

    @pytest.mark.parametrize("text", ['{"epochs": 2,', "[1, 2]"], ids=["invalid-json", "list"])
    def test_a_config_file_that_is_not_an_object_fails_naming_it(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main(["synth", "--config", str(cfg_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"config {cfg_path}")

    def test_unknown_config_key_errors(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"not_a_knob": 1}))
        assert main(["synth", "--config", str(cfg_path)]) != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TypeError"
        assert "not_a_knob" in err["message"]

    @pytest.mark.parametrize("argv", [["synth", "--alpha", "1"], ["train-source", "--data", "x.csv"]],
                             ids=["synth-alpha", "train-source-data"])
    def test_flag_the_subcommand_does_not_read_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("command,field,other", [("evaluate", "target_test", "target_train"),
                                                     ("fit-prior", "target_train", "target_test")])
    def test_data_flag_sets_the_commands_input(self, command, field, other):
        cfg = config_from_args(build_parser().parse_args([command, "--data", "d.csv"]))
        assert getattr(cfg, field) == "d.csv"
        assert getattr(cfg, other) is None

    def test_flag_replaces_a_bad_file_value(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alpha": -1, "epochs": 3}))
        args = build_parser().parse_args(["adapt", "--config", str(cfg_path), "--alpha", "0.2"])
        cfg = config_from_args(args)
        assert (cfg.alpha, cfg.epochs) == (0.2, 3)

    def test_flag_replaces_the_files_axis(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alphas": [0.1, 1.0], "methods": ["craft", "tl"],
                                        "seeds": [0, 1], "bin_counts": [20, 40],
                                        "label_fractions": [0.1, 0.2]}))
        args = build_parser().parse_args(["sweep", "--config", str(cfg_path), "--alpha", "0.5",
                                          "--method", "naive", "--seed", "3"])
        cfg = config_from_args(args)
        assert (cfg.alpha, cfg.method, cfg.seed) == (0.5, "naive", 3)
        assert (cfg.alphas, cfg.methods, cfg.seeds) == (None, None, None)
        assert (cfg.bin_counts, cfg.label_fractions) == ([20, 40], [0.1, 0.2])

    def test_bad_fit_setting_fails_before_the_sweep_starts(self, tmp_path, capsys):
        assert main(["sweep", "--alpha", "-1", "--out", str(tmp_path / "s")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "alpha" in err["message"]
        assert not (tmp_path / "s").exists()

    def test_bad_method_exits_1_with_error_json(self, capsys):
        assert main(["adapt", "--method", "bogus"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "method" in err["message"]

    def test_an_empty_prior_path_exits_1_naming_the_field(self, capsys):
        assert main(["adapt", "--prior", ""]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "prior_file" in err["message"]

    def test_a_missing_prior_file_exits_1_naming_it(self, tiny_workspace, tmp_path, capsys,
                                                    monkeypatch):
        # "fit" is a path like any other, so a run in a directory without that file fails
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"source_checkpoint": tiny_workspace["checkpoint"],
                                        "target_train": tiny_workspace["paths"]["target_train"],
                                        "target_test": tiny_workspace["paths"]["target_test"]}))
        assert main(["adapt", "--config", str(cfg_path), "--prior", "fit", "--out", "out"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"
        assert "'fit'" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_prior_flag_sets_the_prior_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"prior_file": "p.json"}))
        for flags, prior_file in [([], "p.json"), (["--prior", "q.json"], "q.json"),
                                  (["--prior", "fit"], "fit")]:
            args = build_parser().parse_args(["adapt", "--config", str(cfg_path), *flags])
            assert config_from_args(args).prior_file == prior_file

    def test_bad_prior_file_fails_the_sweep_before_its_first_cell(self, tiny_workspace, tmp_path,
                                                                  capsys):
        bad = tmp_path / "prior.json"
        bad.write_text(json.dumps({"kind": "mixture"}))
        cfg = adapt_config(tiny_workspace, tmp_path, out_dir=str(tmp_path / "s"),
                           prior_file=str(bad), methods=["craft", "tl"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({k: v for k, v in dataclasses.asdict(cfg).items()
                                        if v is not None}))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert f"prior file {bad}" in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "s" / "runs.jsonl").exists()

    def test_a_prior_with_no_mass_on_the_grid_fails_the_run(self, tiny_workspace, tmp_path,
                                                            capsys):
        # labels lie within a few units of 0, so the grid's midpoints all fall off this prior
        far = tmp_path / "prior.json"
        far.write_text(json.dumps({"kind": "histogram", "edges": [100.0, 101.0], "probs": [1.0]}))
        cfg = adapt_config(tiny_workspace, tmp_path, out_dir=str(tmp_path / "s"), epochs=2,
                           prior_file=str(far), methods=["craft", "tl"])
        craft_row, tl_row = run_sweep(cfg)["rows"]
        message = "the label prior puts no mass on any candidate bin"
        assert craft_row["error"] == f"ValueError: {message}"
        assert "error" not in tl_row
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({k: v for k, v in dataclasses.asdict(cfg).items()
                                        if v is not None}))
        assert main(["adapt", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 1
        assert json.loads(capsys.readouterr().err)["message"] == message

    @pytest.mark.parametrize("split,named", [("target_test", "the run is scored on it"),
                                             ("target_train", "label_fraction 0.5"),
                                             ("target_val", "has no labeled row")],
                             ids=["target_test", "target_train", "target_val"])
    def test_a_split_no_cell_can_use_fails_the_sweep_before_its_first_cell(
            self, tiny_workspace, tmp_path, capsys, split, named):
        path = partly_labeled(tiny_workspace, split, tmp_path, unlabeled=split == "target_val")
        cfg = adapt_config(tiny_workspace, tmp_path, out_dir=str(tmp_path / "s"), epochs=2,
                           methods=["tl", "naive"], label_fractions=[1.0, 0.5], **{split: path})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({k: v for k, v in dataclasses.asdict(cfg).items()
                                        if v is not None}))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.startswith(f"{split} {path} has ") and named in message
        assert not (tmp_path / "s" / "runs.jsonl").exists()

    def test_a_rerun_into_the_same_directories_writes_the_same_bytes(self, tmp_path, capsys):
        data, source = tmp_path / "data", tmp_path / "source"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": default_scenario(seed=1, d=2, n_source=60, n_target_train=40,
                                         n_target_val=10, n_target_test=10).to_dict(),
            "source_train": str(data / "source.csv"),
            "source_checkpoint": str(source / "source_checkpoint.json"),
            "target_train": str(data / "target_train.csv"),
            "target_val": str(data / "target_val.csv"),
            "target_test": str(data / "target_test.csv"),
            "epochs": 2, "bins": 20, "label_fraction": 0.5, "methods": ["craft", "tl", "naive"],
        }))

        def run_all() -> dict:
            for command, out in [("synth", data), ("train-source", source),
                                 ("adapt", tmp_path / "adapt"), ("sweep", tmp_path / "sweep")]:
                assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
            capsys.readouterr()
            return {p.relative_to(tmp_path).as_posix(): p.read_bytes()
                    for p in tmp_path.rglob("*") if p.is_file()}

        first = run_all()
        assert set(first) == {
            "cfg.json", "data/source.csv", "data/target_train.csv", "data/target_val.csv",
            "data/target_test.csv", "data/scenario.json", "source/source_checkpoint.json",
            "source/source_report.json", "adapt/report_craft_seed0.json", "sweep/runs.jsonl",
            "sweep/runs.csv", "sweep/sweep_report.json",
        }
        assert run_all() == first

    def test_every_flag_sets_a_config_field(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command, parser in sub.choices.items():
            for action in parser._actions:
                if action.dest not in ("help", "config"):
                    assert action.dest in fields, (command, action.option_strings)


SOURCE = Dataset(np.arange(4.0)[:, None], np.arange(4.0))


@pytest.mark.parametrize("call,message", [
    (lambda: train_source_in_memory(Dataset(SOURCE.features, np.array([0.0, 1.0, 2.0, np.nan])),
                                    ExperimentConfig()),
     "^source training expects a fully labeled dataset$"),
    (lambda: train_source_in_memory(SOURCE.subset(np.arange(2)), ExperimentConfig(val_fraction=0.9)),
     "^val_fraction leaves no training rows$"),
    (lambda: run_adapt(ExperimentConfig(source_checkpoint="source_checkpoint.json")),
     "^adapt needs target_train and target_test paths$"),
    (lambda: run_fit_prior(ExperimentConfig()), "^fit-prior needs a labels CSV via target_train$"),
    (lambda: run_evaluate(ExperimentConfig()), "^evaluate needs source_checkpoint and target_test$"),
], ids=["partly-labeled-source", "no-training-row", "adapt-paths", "fit-prior-path", "evaluate-paths"])
def test_each_input_check_fails_with_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
