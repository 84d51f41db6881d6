import json
import math
from pathlib import Path

import pytest

import craft.harness
from bench.run import WORKLOAD_NAMES
from bench.runner import END_TO_END, measure, per_layer_units, tail
from bench.workloads import TINY, WORKLOADS, AdaptCraft, labeled_rows

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
BATCHES = math.ceil(TINY.spec().n_target_train / TINY.batch_size)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result, details = measure(name, seed=3, seconds=0, trace=False, workdir=tmp_path, settings=TINY)
    assert result["correct"], details["problems"]
    assert result["attempted"] >= len(TINY.run_seeds) and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(isinstance(v, float) and math.isfinite(v) for v in values.values())
    assert min(values["setup_s"], values["run_s_min"], values["train_rows_per_s"]) > 0
    assert values["ok_frac"] == 1.0
    assert sorted(details["units"]) == sorted(WORKLOADS[name](TINY, tmp_path).unit_keys())
    # the fastest unit of each kind, summed over one pass: one kind per grid cell on sweep-grid
    kinds = len(TINY.methods) * len(TINY.fractions) if name == "sweep-grid" else 1
    assert len(details["run_s"]) == kinds
    assert values["run_s_min"] == pytest.approx(sum(k["min"] for k in details["run_s"].values()))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result, details = measure(name, seed=3, seconds=0, trace=True, workdir=tmp_path, settings=TINY)
    assert result["correct"], details["problems"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(per_layer_units(TINY))
    assert details["missing_wrap_points"] == []
    prior_calls = metrics["priors.prior_log_density.calls_per_run"]
    if name == "adapt-craft":
        assert prior_calls == TINY.epochs * BATCHES
        assert metrics["network.adam_step.calls"] == TINY.epochs * BATCHES
        assert metrics["engine.select.entries_per_s"] > 0
        assert "harness.train_source_in_memory.self_s" in details["from_setup"]
    elif name == "train-source":
        assert prior_calls == 0 and "priors.prior_log_density.calls_per_run" in details["absent"]
        assert metrics["network.forward_batch.calls_per_step"] < 1.5
    else:
        # one CRAFT cell per label fraction in each sweep
        assert prior_calls == len(TINY.fractions) * TINY.epochs * BATCHES
        assert {"network.save_checkpoint.s", "data.write_csv.s"} <= set(details["from_setup"])
        assert metrics["network.load_checkpoint.s"] > 0
        assert metrics["quality.tl.lf05.rmse_p50"] > 0


def test_traced_run_unwraps_before_every_untraced_unit(tmp_path, monkeypatch):
    seen = []
    unit = AdaptCraft.unit

    def spy(self, seed):
        seen.append(getattr(craft.harness.adapt_in_memory, "__bench_traced__", False))
        return unit(self, seed)

    monkeypatch.setattr(AdaptCraft, "unit", spy)
    n = len(TINY.run_seeds)
    measure("adapt-craft", seed=0, seconds=0, trace=True, workdir=tmp_path, settings=TINY)
    assert seen == [False, True] * n
    seen.clear()
    measure("adapt-craft", seed=0, seconds=0, trace=False, workdir=tmp_path, settings=TINY)
    assert seen == [False] * n


def test_missing_wrap_point_does_not_stop_a_traced_run(tmp_path, monkeypatch):
    monkeypatch.delattr(craft.engine, "fit_tl")
    result, details = measure("sweep-grid", seed=0, seconds=0, trace=True, workdir=tmp_path,
                              settings=TINY)
    assert result["correct"]
    assert details["missing_wrap_points"] == ["craft.engine.fit_tl"]


def test_unit_failure_counts_against_the_run(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("diverged")

    monkeypatch.setattr(craft.harness, "adapt_in_memory", broken)
    result, details = measure("adapt-craft", seed=0, seconds=0, trace=False, workdir=tmp_path,
                              settings=TINY)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == len(TINY.run_seeds)
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert "diverged" in details["problems"][0]


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert tail([float(i) for i in range(19)]) == (18.0, 100.0)
    value, pct = tail([float(i) for i in range(30)])
    assert value == 19.0 and pct == pytest.approx(100 * 20 / 30)


def test_labeled_rows_matches_the_stratified_mask():
    from craft.data import generate_synthetic, stratified_label_mask

    train = generate_synthetic(TINY.spec())[1]
    for fraction in (0.01, 0.05, 0.10):
        mask = stratified_label_mask(train, fraction, TINY.n_strata, seed=0)
        assert labeled_rows(train.n, fraction, TINY.n_strata) == mask.n_labeled


def test_benchmark_json_matches_the_runner():
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS) - {"train-source"}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_units()
