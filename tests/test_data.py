import csv
import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import invert_scaler

from craft.data import (
    Dataset,
    GeneratorSpec,
    ScalerParams,
    apply_scaler,
    fit_scaler,
    generate_synthetic,
    ground_truth,
    inject_marginal_bias,
    load_csv,
    stratified_label_mask,
    write_csv,
    write_file,
    write_json,
    _load_csv_rows,
)
from craft.cli import build_parser, config_from_args
from craft.harness import default_scenario
from craft.network import load_checkpoint
from craft.priors import HistogramPrior, MixturePrior, load_prior


def make_dataset(n=10, d=3, seed=0, labeled=None):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    if labeled is not None:
        y[~np.asarray(labeled, dtype=bool)] = np.nan
    return Dataset(X, y)


class TestDatasetInvariants:
    def test_rejects_nonfinite_features(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[1.0], [np.inf]]), np.zeros(2))

    def test_a_nan_label_is_an_unlabeled_row(self):
        ds = Dataset(np.ones((2, 1)), np.array([1.0, np.nan]))
        assert ds.labeled.tolist() == [True, False]
        assert ds.n_labeled == 1

    @pytest.mark.parametrize("label", [np.inf, -np.inf])
    def test_an_infinite_label_fails_naming_it(self, label):
        message = rf"^row 1 has label {re.escape(repr(float(label)))}: a label is finite, or NaN"
        with pytest.raises(ValueError, match=message):
            Dataset(np.ones((3, 1)), np.array([1.0, label, np.nan]))

    def test_labeled_is_read_only(self):
        ds = make_dataset(labeled=[1, 0] * 5)
        with pytest.raises(ValueError):
            ds.labeled[1] = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.labeled = np.ones(ds.n, dtype=bool)

    def test_the_mask_is_not_an_argument(self):
        assert [f.name for f in dataclasses.fields(Dataset)] == ["features", "labels"]
        with pytest.raises(TypeError):
            Dataset(np.ones((2, 1)), np.ones(2), np.ones(2, dtype=bool))

    def test_arrays_are_readonly(self):
        ds = make_dataset()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_a_read_only_array_that_owns_its_memory_is_kept(self):
        ds = make_dataset()
        again = Dataset(ds.features, ds.labels)
        assert again.features is ds.features and again.labels is ds.labels

    @pytest.mark.parametrize("source", ["writable", "view", "frombuffer"])
    def test_a_caller_array_others_can_write_is_copied(self, source):
        base = np.arange(6.0).reshape(3, 2)
        buffer = bytearray(base.tobytes())
        features = {"writable": base, "view": base[:, :],
                    "frombuffer": np.frombuffer(buffer).reshape(3, 2)}[source]
        if source != "writable":
            features.setflags(write=False)  # read-only, yet its memory is written through another name
        ds = Dataset(features, np.zeros(3))
        base[0, 0] = 99.0
        buffer[:8] = np.float64(99.0).tobytes()
        assert ds.features[0, 0] == 0.0


class TestCsv:
    def test_missing_labeled_column_defaults_to_all_labeled(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,y\n0.1,0.2,1.5\n0.3,0.4,2.5\n0.5,0.6,3.5\n")
        ds = load_csv(path)
        assert ds.labeled.tolist() == [True, True, True]
        assert ds.labels.tolist() == [1.5, 2.5, 3.5]

    def test_empty_label_cell_on_unlabeled_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,y,labeled\n0.1,0.2,,0\n0.3,0.4,1.0,1\n")
        ds = load_csv(path)
        assert not ds.labeled[0] and math.isnan(ds.labels[0])
        assert ds.labeled[1] and ds.labels[1] == 1.0

    def test_labeled_row_with_empty_label_errors(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,y,labeled\n0.1,0.2,,1\n")
        with pytest.raises(ValueError, match="labeled sample missing label"):
            load_csv(path)

    def test_unlabeled_row_carrying_a_label_errors(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,y,labeled\n0.5,1.0,1\n1.0,3.0,0\n")
        message = rf"^{re.escape(str(path))}:3: unlabeled row carries a label in column y$"
        with pytest.raises(ValueError, match=message):
            load_csv(path)

    def test_malformed_header_errors(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,3\n")
        with pytest.raises(ValueError, match="malformed header"):
            load_csv(path)

    def test_non_numeric_cell_errors(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,y\nfoo,1.0\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(path)

    @pytest.mark.parametrize("text,line,column", [
        ("f0,y\n0.1,1.0\nnan,2.0\n", 3, "f0"),
        ("f0,y,labeled\n0.1,inf,1\n", 2, "y"),
        ("f0,y\n0.1,1.0\n\n   \r\nnan,2.0\n", 5, "f0"),
        ("f0,y\n0.1,1.0\n0.2,nan\n", 3, "y"),
    ], ids=["feature", "label", "after-blank-lines", "nan-label-without-mask"])
    def test_non_finite_cell_errors_naming_file_line_and_column(self, tmp_path, text, line, column):
        path = tmp_path / "d.csv"
        path.write_text(text)
        message = rf"^{re.escape(str(path))}:{line}: non-finite value .* in column {column}$"
        with pytest.raises(ValueError, match=message):
            load_csv(path)

    def test_round_trip(self, tmp_path):
        ds = make_dataset(n=7, d=2, labeled=[1, 1, 0, 1, 0, 1, 1])
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labeled, ds.labeled)
        np.testing.assert_array_equal(back.labels[back.labeled], ds.labels[ds.labeled])
        assert np.isnan(back.labels[~back.labeled]).all()

    def test_fully_labeled_round_trip_omits_mask_column(self, tmp_path):
        ds = make_dataset(n=3, d=2)
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        assert path.read_text().splitlines()[0] == "f0,f1,y"
        back = load_csv(path)
        np.testing.assert_array_equal(back.labels, ds.labels)

    @pytest.mark.parametrize("labeled,text", [
        ([True, False, True],
         "f0,f1,y,labeled\r\n-0.0,1e-07,0.30000000000000004,1\r\n"
         "1e+16,0.30000000000000004,,0\r\n2.5,-3.0,1e-07,1\r\n"),
        ([True, True, True],
         "f0,f1,y\r\n-0.0,1e-07,0.30000000000000004\r\n"
         "1e+16,0.30000000000000004,-0.0\r\n2.5,-3.0,1e-07\r\n"),
    ], ids=["with-mask-column", "fully-labeled"])
    def test_written_text_is_pinned(self, tmp_path, labeled, text):
        features = np.array([[-0.0, 1e-07], [1e+16, 0.1 + 0.2], [2.5, -3.0]])
        ds = Dataset(features, np.where(labeled, [0.1 + 0.2, -0.0, 1e-07], np.nan))
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        assert path.read_bytes() == text.encode("utf-8")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "f0,f1,y,labeled\n0.1,0.2,,0\n0.3,0.4,1.0,1\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        a, b = load_csv(plain), load_csv(marked)
        np.testing.assert_array_equal(b.features, a.features)
        np.testing.assert_array_equal(b.labels, a.labels)
        np.testing.assert_array_equal(b.labeled, a.labeled)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_unlabeled_row_with_a_non_finite_label_errors(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"f0,y,labeled\n0.5,1.0,1\n1.0,{cell},0\n")
        message = rf"^{re.escape(str(path))}:3: unlabeled row carries a label in column y$"
        with pytest.raises(ValueError, match=message):
            load_csv(path)

    @pytest.mark.parametrize("flag", ["1.0", " 2", ""], ids=["1.0", "2", "empty"])
    def test_labeled_flag_other_than_0_or_1_errors(self, tmp_path, flag):
        path = tmp_path / "d.csv"
        path.write_text(f"f0,y,labeled\n0.5,1.0,1\n1.0,2.0,{flag}\n")
        message = rf"^{re.escape(str(path))}:3: labeled flag must be 0 or 1, got {re.escape(repr(flag.strip()))}$"
        with pytest.raises(ValueError, match=message):
            load_csv(path)

    def test_header_only_file_errors_without_a_warning(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,y\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r": no data rows$"):
                load_csv(path)
        assert caught == []

    def test_written_fully_labeled_file_loads_without_the_row_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        write_csv(make_dataset(n=300, d=8), path)
        expected = _outcome(_load_csv_rows, path)
        monkeypatch.setattr("craft.data._load_csv_rows", _decline)
        assert _outcome(load_csv, path) == expected

    def test_written_masked_file_is_read_by_the_row_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        write_csv(make_dataset(n=300, d=8, labeled=np.arange(300) % 4 == 0), path)
        monkeypatch.setattr("craft.data._load_csv_rows", _decline)
        with pytest.raises(_Declined):
            load_csv(path)


class _Declined(Exception):
    pass


def _decline(path):
    raise _Declined(path)


def _outcome(load, path):
    """What ``load(path)`` gives: the dataset's shape and bytes, or the error's
    type and message."""
    try:
        ds = load(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return ds.features.shape, ds.features.tobytes(), ds.labels.tobytes(), ds.labeled.tobytes()


# Bodies on which the C reader and the row reader could part ways.
_CSV_TEXTS = {
    "quoted-cells": 'f0,f1,y\n"0.5","1.5","2.5"\n"3",4,"5"\n',
    "doubled-quotes": 'f0,y\n"1""",2\n',
    "text-after-closing-quote": 'f0,y\n"1"2,3\n',
    "newline-inside-quotes": 'f0,y\n"1\n",2\n3,4\n',
    "spaces-around-numbers": 'f0,f1,y\n 1.5 , -2 ,\t3 \n',
    "crlf": "f0,y,labeled\r\n1,2,1\r\n3,,0\r\n",
    "lone-cr": "f0,y\r1,2\r3,4\r",
    "byte-order-mark": "\ufefff0,y\n1,2\n",
    "blank-lines": "f0,y\n1,2\n\n\r\n3,4\n",
    "whitespace-only-lines": "f0,y\n1,2\n   \n\t\n3,4\n",
    "blank-lines-then-bad-cell": "f0,y\n1,2\n\n  \nx,4\n",
    "all-blank-row": "f0,f1,y\n1,2,3\n,,\n4,5,6\n",
    "hash-inside-cell": "f0,y\n1#2,3\n",
    "underscore-digits": "f0,y\n1_0,2\n",
    "non-ascii-digits": "f0,y\n\u0661\u0662,2\n",
    "exponents-and-negative-zero": "f0,f1,y\n1e+16,1E-7,-0.0\n",
    "masked-negative-zero": "f0,y,labeled\n-0.0,-0.0,1\n1,,0\n",
    "quoted-mask-cells": 'f0,y,labeled\n1,"",0\n2,3,"1"\n',
    "trailing-extra-cell": "f0,y\n1,2,\n",
    "too-few-cells": "f0,f1,y\n1,2\n",
    "single-data-row": "f0,y\n1,2\n",
    "no-final-newline": "f0,y\n1,2\n3,4",
    "header-only": "f0,y\n",
    "non-finite-feature": "f0,y,labeled\n1e999,,0\n",
}


@pytest.mark.parametrize("text", _CSV_TEXTS.values(), ids=_CSV_TEXTS.keys())
def test_load_csv_matches_the_row_reader(tmp_path, monkeypatch, text):
    """``load_csv`` gives what the row reader gives, and its C path alone
    either declines a file or agrees with the row reader on it."""
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _outcome(_load_csv_rows, path)
    assert _outcome(load_csv, path) == expected
    monkeypatch.setattr("craft.data._load_csv_rows", _decline)
    try:
        fast = _outcome(load_csv, path)
    except _Declined:
        return
    assert fast == expected


def _traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates while it runs, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCsvMemory:
    """The writer holds one row of Python objects at a time and the reader
    one float table, never the whole file as Python objects (4000x16:
    0.49 MB of features)."""

    def test_write_peak_stays_below_the_feature_bytes(self, tmp_path):
        ds = make_dataset(n=4000, d=16, labeled=np.arange(4000) % 3 > 0)
        assert _traced_peak(write_csv, ds, tmp_path / "d.csv") < 1.0 * ds.features.nbytes

    def test_load_peak_stays_below_three_times_the_feature_bytes(self, tmp_path):
        ds = make_dataset(n=4000, d=16, labeled=np.arange(4000) % 3 > 0)
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        assert _traced_peak(load_csv, path) < 3.0 * ds.features.nbytes

    def test_fully_labeled_load_peak_stays_below_three_times_the_feature_bytes(self, tmp_path):
        ds = make_dataset(n=4000, d=16)
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        assert _traced_peak(load_csv, path) < 3.0 * ds.features.nbytes


class TestTransformMemory:
    """``apply_scaler`` and ``Dataset.subset`` hand the arrays they build to the
    new dataset uncopied, so each holds one feature matrix at its peak (4000x16)."""

    def test_apply_scaler_peak_stays_within_1_3_times_the_feature_bytes(self):
        ds = make_dataset(n=4000, d=16)
        params = fit_scaler(ds)
        assert _traced_peak(apply_scaler, ds, params) <= 1.3 * ds.features.nbytes

    def test_subset_peak_stays_within_1_3_times_the_feature_bytes(self):
        ds = make_dataset(n=4000, d=16)
        rows = np.arange(ds.n)
        assert _traced_peak(ds.subset, rows) <= 1.3 * ds.features.nbytes


class TestScaler:
    def test_label_endpoints_map_to_unit_interval(self):
        ds = Dataset(np.arange(6).reshape(3, 2) + 0.0, np.array([0.0, 5.0, 10.0]))
        params = fit_scaler(ds)
        scaled = apply_scaler(ds, params)
        np.testing.assert_allclose(scaled.labels, [-1.0, 0.0, 1.0])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip_identity(self, seed):
        ds = make_dataset(n=20, d=4, seed=seed)
        params = fit_scaler(ds)
        back = invert_scaler(apply_scaler(ds, params), params)
        np.testing.assert_allclose(back.features, ds.features, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(back.labels, ds.labels, rtol=1e-12, atol=1e-12)

    def test_label_map_is_the_label_scaling(self):
        ds = make_dataset(n=20, d=2, seed=3)
        params = fit_scaler(ds)
        scale, shift = params.label_map()
        np.testing.assert_allclose(scale * ds.labels + shift, params.scale_labels(ds.labels),
                                   rtol=0, atol=1e-14)

    def test_scaled_features_standardized(self):
        ds = make_dataset(n=200, d=3, seed=1)
        scaled = apply_scaler(ds, fit_scaler(ds))
        np.testing.assert_allclose(scaled.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.features.std(axis=0), 1.0, atol=1e-12)

    def test_zero_variance_feature_errors(self):
        X = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        ds = Dataset(X, np.arange(5.0))
        with pytest.raises(ValueError, match="zero-variance"):
            fit_scaler(ds)

    def test_labels_whose_range_overflows_error(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(3, 2)), np.array([-1e308, 0.0, 1e308]))
        with pytest.raises(ValueError, match="^label_lo -1e\\+308 to label_hi 1e\\+308 "):
            fit_scaler(ds)

    def test_constant_labels_error(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(5, 2)), np.full(5, 2.0))
        with pytest.raises(ValueError, match="label_lo equals label_hi"):
            fit_scaler(ds)

    def test_label_range_uses_labeled_rows_only(self):
        X = np.random.default_rng(0).normal(size=(4, 2))
        ds = Dataset(X, np.array([0.0, 10.0, np.nan, np.nan]))
        params = fit_scaler(ds)
        assert params.label_lo == 0.0 and params.label_hi == 10.0


class TestStratifiedMask:
    def test_exact_counts_per_stratum(self):
        ds = Dataset(np.ones((10, 1)), np.arange(10.0))
        masked = stratified_label_mask(ds, keep_fraction=0.4, n_strata=2, seed=0)
        order = np.argsort(ds.labels)
        assert masked.labeled[order[:5]].sum() == 2
        assert masked.labeled[order[5:]].sum() == 2

    def test_keep_all_is_identity(self):
        ds = make_dataset(n=12)
        masked = stratified_label_mask(ds, 1.0, n_strata=3, seed=5)
        assert masked.labeled.all()

    def test_deterministic_and_seed_sensitive(self):
        ds = make_dataset(n=40)
        a = stratified_label_mask(ds, 0.3, n_strata=4, seed=11)
        b = stratified_label_mask(ds, 0.3, n_strata=4, seed=11)
        c = stratified_label_mask(ds, 0.3, n_strata=4, seed=12)
        np.testing.assert_array_equal(a.labeled, b.labeled)
        assert not np.array_equal(a.labeled, c.labeled)

    def test_only_the_dropped_labels_change(self):
        ds = make_dataset(n=15)
        masked = stratified_label_mask(ds, 0.5, n_strata=10, seed=3)
        kept = masked.labeled
        assert masked.features is ds.features
        assert 0 < kept.sum() < ds.n
        np.testing.assert_array_equal(masked.labels[kept], ds.labels[kept])
        assert np.isnan(masked.labels[~kept]).all()

    def test_fraction_domain(self):
        ds = make_dataset()
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                stratified_label_mask(ds, bad, n_strata=10, seed=0)

    def test_requires_fully_labeled(self):
        ds = make_dataset(n=4, labeled=[1, 0, 1, 1])
        with pytest.raises(ValueError, match="fully labeled"):
            stratified_label_mask(ds, 0.5, n_strata=10, seed=0)


class TestMarginalBias:
    def test_counts_with_median_threshold(self):
        # the threshold is the label mean, which on arange(100) is also its median, 49.5
        ds = Dataset(np.ones((100, 1)), np.arange(100.0))
        biased = inject_marginal_bias(ds, keep_fraction_above=0.2, seed=0)
        assert biased.n == 60
        assert (biased.labels <= 49.5).sum() == 50
        assert (biased.labels > 49.5).sum() == 10

    def test_keep_all_is_identity(self):
        ds = make_dataset(n=30)
        biased = inject_marginal_bias(ds, 1.0, seed=0)
        np.testing.assert_array_equal(biased.features, ds.features)
        np.testing.assert_array_equal(biased.labels, ds.labels)

    def test_output_is_row_subset(self):
        ds = make_dataset(n=50, seed=2)
        biased = inject_marginal_bias(ds, 0.3, seed=4)
        rows = {tuple(r) for r in ds.features}
        assert all(tuple(r) in rows for r in biased.features)
        assert biased.n < ds.n

    def test_mean_threshold_then_mask_reproduces_bias_protocol(self):
        # the sampling-bias regime: 80% above the mean removed, then keep 40% of labels
        rng = np.random.default_rng(0)
        y = rng.normal(60.0, 10.0, 400)
        ds = Dataset(rng.normal(size=(400, 2)), y)
        biased = inject_marginal_bias(ds, keep_fraction_above=0.2, seed=1)
        n_above_before = int((y > y.mean()).sum())
        n_above_after = int((biased.labels > y.mean()).sum())
        assert n_above_after == int(math.floor(0.2 * n_above_before + 0.5))
        masked = stratified_label_mask(biased, 0.4, n_strata=10, seed=1)
        kept = masked.n_labeled / masked.n
        assert abs(kept - 0.4) < 0.05

    def test_fraction_domain(self):
        ds = make_dataset()
        with pytest.raises(ValueError):
            inject_marginal_bias(ds, -0.01, seed=0)
        with pytest.raises(ValueError):
            inject_marginal_bias(ds, 1.01, seed=0)


class TestGenerator:
    def test_null_shift_matches_source_distribution(self):
        spec = GeneratorSpec("null", 3, 2000, 2000, 10, 10, 0.0, 1.0, 0.0, 3)
        source, train, _, _ = generate_synthetic(spec)
        assert abs(train.features.mean()) < 0.05
        assert abs(train.features.std() - 1.0) < 0.05
        assert abs(source.features.mean()) < 0.05

    def test_noiseless_labels_equal_ground_truth(self):
        spec = GeneratorSpec("clean", 4, 50, 50, 10, 10, 0.5, 1.3, 0.0, 1)
        source, train, _, _ = generate_synthetic(spec)
        np.testing.assert_array_equal(source.labels, ground_truth(source.features))
        np.testing.assert_array_equal(train.labels, ground_truth(train.features))

    def test_deterministic(self):
        spec = GeneratorSpec("det", 2, 30, 30, 10, 10, 0.5, 1.2, 0.1, 9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for ds_a, ds_b in zip(a, b):
            np.testing.assert_array_equal(ds_a.features, ds_b.features)
            np.testing.assert_array_equal(ds_a.labels, ds_b.labels)

    def test_target_splits_disjoint(self):
        spec = GeneratorSpec("disjoint", 2, 30, 40, 40, 40, 0.5, 1.2, 0.1, 9)
        _, train, val, test = generate_synthetic(spec)
        seen = {tuple(r) for r in train.features}
        assert not any(tuple(r) in seen for r in val.features)
        assert not any(tuple(r) in seen for r in test.features)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec("bad", 2, 0, 10, 10, 10, 0.0, 1.0, 0.1, 0)
        with pytest.raises(ValueError):
            GeneratorSpec("bad", 2, 10, 10, 10, 10, 0.0, -1.0, 0.1, 0)
        with pytest.raises(ValueError):
            GeneratorSpec("bad", 2, 10, 10, 10, 10, 0.0, 1.0, -0.1, 0)

    @pytest.mark.parametrize("field,value", [("d", 2.5), ("n_source", 10.0), ("n_target_test", "10"),
                                             ("seed", 1.5), ("n_target_val", True)])
    def test_counts_and_seed_must_be_integers(self, field, value):
        values = dict(scenario="bad", d=2, n_source=10, n_target_train=10, n_target_val=10,
                      n_target_test=10, shift_mean=0.0, shift_scale=1.0, noise_std=0.1, seed=0)
        values[field] = value
        with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
            GeneratorSpec(**values)

    @pytest.mark.parametrize("value", [5, ""], ids=["number", "empty"])
    def test_scenario_must_be_a_nonempty_string(self, value):
        with pytest.raises(ValueError, match="^scenario must be a nonempty string"):
            GeneratorSpec(value, 2, 10, 10, 10, 10, 0.0, 1.0, 0.1, 0)

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="^seed must be at least 0"):
            GeneratorSpec("bad", 2, 10, 10, 10, 10, 0.0, 1.0, 0.1, -1)


class TestWriteJson:
    def test_writes_the_payload(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"a": [1, 2]}, indent=2)
        assert path.read_text() == '{\n  "a": [\n    1,\n    2\n  ]\n}'

    def test_unserializable_payload_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            write_json(path, {"a": 1, "b": object()})  # fails after writing '{"a": 1, "b": '
        assert list(tmp_path.iterdir()) == []
        path.write_text("old")
        with pytest.raises(TypeError):
            write_json(path, {"a": 1, "b": object()})
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("what,read", [
    ("checkpoint", load_checkpoint),
    ("prior file", load_prior),
    ("config", lambda path: config_from_args(build_parser().parse_args(["synth", "--config", path]))),
])
def test_a_malformed_json_file_fails_naming_it_through_every_reader(tmp_path, what, read):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 1,')
    message = f"{what} {path}: Expecting property name enclosed in double quotes: line 1 column 15"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        read(str(path))


class TestWriteFile:
    def test_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.csv"
        write_file(path, lambda fh: csv.writer(fh).writerow(["x", "y"]))
        assert path.read_bytes() == b"x,y\r\n"
        assert [p.name for p in path.parent.iterdir()] == ["out.csv"]

    def test_failed_fill_leaves_no_file_and_keeps_an_earlier_one(self, tmp_path):
        path = tmp_path / "rows.csv"

        def half_a_row(fh):
            fh.write("1.0,2.")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_file(path, half_a_row)
        assert list(tmp_path.iterdir()) == []
        path.write_text("f0,y\n1.0,2.0\n")
        with pytest.raises(OSError, match="disk full"):
            write_file(path, half_a_row)
        assert path.read_text() == "f0,y\n1.0,2.0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


@pytest.mark.parametrize("make", [
    lambda: ScalerParams(np.zeros(2), np.ones(2), -1.0, 1.0),
    lambda: Dataset(np.ones((2, 2)), np.ones(2)),
    lambda: default_scenario(seed=1),
    lambda: MixturePrior([0.5, 0.5], [0.0], [1.0], [1.0], 0.0),
    lambda: HistogramPrior([0, 1, 2], [1, 1]),
], ids=["ScalerParams", "Dataset", "GeneratorSpec", "MixturePrior", "HistogramPrior"])
def test_array_holding_values_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def _csv(directory, text):
    path = directory / "rows.csv"
    path.write_text(text)
    return path


ROWS = np.arange(4.0)[:, None]


@pytest.mark.parametrize("call,message", [
    (lambda tmp: Dataset(np.ones(3), np.ones(3)),
     "^features must be a non-empty 2-d matrix$"),
    (lambda tmp: Dataset(ROWS, np.ones(3)),
     "^labels must be a vector matching the row count$"),
    (lambda tmp: load_csv(_csv(tmp, "")), r"rows\.csv: empty file$"),
    (lambda tmp: fit_scaler(Dataset(ROWS, np.full(4, np.nan))),
     "^cannot fit a label scaler without labeled rows$"),
    (lambda tmp: stratified_label_mask(Dataset(ROWS, np.arange(4.0)), 0.5, 0, 0),
     "^n_strata must be at least 1$"),
    (lambda tmp: inject_marginal_bias(Dataset(ROWS, np.array([0.0, 1.0, 2.0, np.nan])), 0.5, 0),
     "^inject_marginal_bias expects a fully labeled dataset$"),
], ids=["vector-features", "short-labels", "empty-csv", "no-labeled-row", "zero-strata",
        "partly-labeled-bias"])
def test_each_input_check_fails_with_its_message(call, message, tmp_path):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)
