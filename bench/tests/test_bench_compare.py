import json

import pytest

from bench.compare import compare, judge

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


def test_clear_gain_on_every_pair():
    v = judge(PARENT, [p * 0.8 for p in PARENT], "lower", 0.1)
    assert (v.wins, v.pairs, v.gain, v.bound) == (10, 10, True, "ok")


def test_eight_of_ten_wins_is_no_gain():
    change = [p * 0.8 for p in PARENT[:8]] + [p * 1.01 for p in PARENT[8:]]
    v = judge(PARENT, change, "lower", 0.1)
    assert v.wins == 8 and not v.gain


def test_ties_count_for_neither_side():
    change = [p * 0.8 for p in PARENT[:9]] + [PARENT[9]]
    v = judge(PARENT, change, "lower")
    assert v.wins == 9 and v.gain


def test_every_pair_won_but_medians_within_parent_spread_is_no_gain():
    v = judge(PARENT, [p - 0.01 for p in PARENT], "lower", 0.1)
    assert v.wins == 10 and not v.gain


def test_fewer_than_ten_pairs_never_claims_a_gain():
    v = judge(PARENT[:9], [p * 0.5 for p in PARENT[:9]], "lower")
    assert not v.gain


def test_higher_is_better_direction():
    assert judge(PARENT, [p * 1.2 for p in PARENT], "higher").gain
    assert not judge(PARENT, [p * 0.8 for p in PARENT], "higher").gain


def test_regression_beyond_bound():
    assert judge(PARENT, [p * 1.2 for p in PARENT], "lower", 0.1).bound == "regressed"
    assert judge(PARENT, [p * 1.05 for p in PARENT], "lower", 0.1).bound == "ok"
    assert judge(PARENT, [p * 0.85 for p in PARENT], "higher", 0.1).bound == "regressed"


def test_spread_wider_than_bound_is_unresolved_unless_change_beats_every_parent_run():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert judge(noisy, list(noisy), "lower", 0.1).bound == "unresolved"
    assert judge(noisy, [4.0] * 10, "lower", 0.1).bound == "ok"


def test_mismatched_inputs_are_rejected():
    with pytest.raises(ValueError):
        judge([1.0], [1.0, 2.0], "lower")
    with pytest.raises(ValueError):
        judge([1.0], [1.0], "smaller")


def _write_run(directory, seed, value):
    details = {"workload": "adapt-craft", "seed": seed, "trace": 0}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"run_s_min": {"value": value, "unit": "s"}}}
    (directory / f"run-{seed}.out").write_text(
        "table line\n" + json.dumps(details) + "\n" + json.dumps(result) + "\n")


def test_compare_pairs_runs_by_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed in range(10):
        _write_run(parent, seed, 10.0 + 0.1 * seed)
        _write_run(change, seed, 5.0 + 0.1 * seed)
    _write_run(change, 99, 1.0)  # unpaired, ignored
    spec = {"end_to_end": [{"name": "run_s_min", "better": "lower", "bound": 0.1}], "per_layer": []}
    [(workload, metric, v)] = compare(parent, change, spec)
    assert (workload, metric, v.pairs, v.wins, v.gain, v.bound) == (
        "adapt-craft", "run_s_min", 10, 10, True, "ok")
