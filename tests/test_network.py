import math
import re

import numpy as np
import pytest
from oracles import grad_check, gradient

from craft.data import ScalerParams
from craft.network import (
    AdamState,
    MlpSpec,
    RegressorParams,
    adam_step,
    backward,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
)


def scalar_linear(w=2.0, b=1.0):
    spec = MlpSpec((1, 1))
    return RegressorParams.from_blocks(spec, [np.array([[w]])], [np.array([b])])


class TestInit:
    def test_deterministic(self):
        spec = MlpSpec((3, 5, 1))
        a = init_params(spec, seed=42)
        b = init_params(spec, seed=42)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_biases_zero_and_weights_bounded(self):
        spec = MlpSpec((4, 7, 1))
        params = init_params(spec, seed=0)
        for b in params.biases:
            assert (b == 0.0).all()
        for w, fan_in, fan_out in zip(params.weights, spec.layer_sizes[:-1], spec.layer_sizes[1:]):
            s = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(w).max() <= s

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MlpSpec((3, 5, 2))
        with pytest.raises(ValueError):
            MlpSpec((3,))
        with pytest.raises(ValueError, match="^layer size must be an integer"):
            MlpSpec((3, 4.5, 1))
        with pytest.raises(ValueError, match="^layer size must be at least 1"):
            MlpSpec((3, 0, 1))


class TestForward:
    def test_zero_network_outputs_zero(self):
        spec = MlpSpec((2, 3, 1))
        params = RegressorParams.from_blocks(spec, [np.zeros((2, 3)), np.zeros((3, 1))],
                                             [np.zeros(3), np.zeros(1)])
        out = forward_batch(params, np.random.default_rng(0).normal(size=(5, 2)))
        assert (out == 0.0).all()

    def test_scalar_affine(self):
        out = forward_batch(scalar_linear(2.0, 1.0), np.array([[3.0]]))
        assert out[0] == 7.0

    def test_batched_matches_row_loop(self):
        params = init_params(MlpSpec((3, 6, 4, 1)), seed=1)
        X = np.random.default_rng(2).normal(size=(10, 3))
        batched = forward_batch(params, X)
        rows = np.array([forward_batch(params, X[i:i + 1])[0] for i in range(10)])
        np.testing.assert_allclose(batched, rows, rtol=1e-12, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="expected shape"):
            forward_batch(init_params(MlpSpec((3, 1)), 0), np.ones((2, 4)))


class TestBackward:
    def test_zero_upstream_gives_zero_gradient(self):
        params = init_params(MlpSpec((2, 4, 1)), seed=3)
        grads = gradient(params, np.ones((5, 2)), np.zeros(5))
        for _, g in grads.blocks():
            assert (g == 0.0).all()

    def test_scalar_linear_hand_derivative(self):
        grads = gradient(scalar_linear(), np.array([[3.0]]), np.array([1.0]))
        assert grads.weights[0][0, 0] == 3.0
        assert grads.biases[0][0] == 1.0

    def test_matches_finite_differences(self):
        params = init_params(MlpSpec((2, 8, 1)), seed=4)
        X = np.random.default_rng(5).normal(size=(6, 2))
        upstream = np.random.default_rng(6).normal(size=6)

        def loss_fn(p):
            out = forward_batch(p, X)
            return float(out @ upstream), gradient(p, X, upstream)

        assert grad_check(loss_fn, params, h=1e-5) < 1e-6

    def test_rejects_a_cache_without_a_forward_pass_over_its_rows(self):
        params = init_params(MlpSpec((2, 4, 1)), seed=7)
        X = np.random.default_rng(8).normal(size=(3, 2))
        with pytest.raises(ValueError, match="cache does not hold one activation per layer"):
            backward(params, np.ones(3), [])
        cache: list = []
        forward_batch(params, X[:2], cache)
        with pytest.raises(ValueError, match="one entry per cached row"):
            backward(params, np.ones(3), cache)


def ones_gradient(params):
    return RegressorParams(params.spec, np.ones_like(params.vector))


def zero_gradient(params):
    return RegressorParams(params.spec, np.zeros_like(params.vector))


class TestAdam:
    def test_first_step_hand_value(self):
        params = scalar_linear(0.0, 0.0)
        state = AdamState.init(params, learning_rate=0.1)
        new, _ = adam_step(params, ones_gradient(params), state)
        expected_delta = -0.1 * (1.0 / (1.0 + 1e-8))
        assert abs(new.weights[0][0, 0] - expected_delta) < 1e-15

    def test_zero_gradient_leaves_params_unchanged(self):
        params = init_params(MlpSpec((2, 3, 1)), seed=0)
        state = AdamState.init(params, learning_rate=0.1)
        current = params
        for _ in range(5):
            current, state = adam_step(current, zero_gradient(current), state)
        for w0, w1 in zip(params.weights, current.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_two_steps_match_scalar_oracle(self):
        # independent unrolling of the update recurrences on plain floats
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        theta, m, v = 0.7, 0.0, 0.0
        for t in (1, 2):
            g = 1.0
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        params = scalar_linear(0.7, 0.0)
        state = AdamState.init(params, learning_rate=lr)
        for _ in range(2):
            params, state = adam_step(params, ones_gradient(params), state)
        assert abs(params.weights[0][0, 0] - theta) < 1e-15

    def test_zero_learning_rate_is_identity(self):
        params = init_params(MlpSpec((3, 4, 1)), seed=1)
        state = AdamState.init(params, learning_rate=0.0)
        rng = np.random.default_rng(0)
        grads = RegressorParams.from_blocks(params.spec,
                                            [rng.normal(size=w.shape) for w in params.weights],
                                            [rng.normal(size=b.shape) for b in params.biases])
        new, _ = adam_step(params, grads, state)
        for w0, w1 in zip(params.weights, new.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_nonfinite_gradient_names_block(self):
        params = init_params(MlpSpec((2, 3, 1)), seed=0)
        grads = zero_gradient(params)
        grads.weights[1][0, 0] = np.nan
        with pytest.raises(ValueError, match="layer 1 weights"):
            adam_step(params, grads, AdamState.init(params, learning_rate=0.1))


class TestGradCheck:
    def test_quadratic_loss(self):
        params = scalar_linear(1.0, 0.0)

        def loss_fn(p):
            w = p.weights[0][0, 0]
            g = zero_gradient(p)
            g.weights[0][0, 0] = 2.0 * w
            return w * w, g

        assert grad_check(loss_fn, params, h=1e-5) < 1e-9

    def test_constant_loss(self):
        params = scalar_linear(1.0, 0.0)

        def loss_fn(p):
            return 5.0, zero_gradient(p)

        assert grad_check(loss_fn, params, h=1e-5) == 0.0


SCALER = ScalerParams(np.array([0.0, 1.0]), np.array([1.0, 2.0]), -1.0, 1.0)


class TestCheckpoint:
    def test_round_trip_is_byte_identical(self, tmp_path):
        params = init_params(MlpSpec((3, 5, 1)), seed=9)
        scaler = ScalerParams(np.array([0.1, -0.2, 0.3]), np.array([1.0, 2.0, 3.0]), -2.0, 7.0)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(p1, params, scaler)
        ckpt = load_checkpoint(p1)
        save_checkpoint(p2, ckpt.params, ckpt.scaler)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        import json
        path = tmp_path / "c.json"
        save_checkpoint(path, init_params(MlpSpec((2, 4, 1)), seed=3), SCALER)
        before = path.read_bytes()

        def failing_dump(obj, fh, **kwargs):
            fh.write('{"version": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, init_params(MlpSpec((2, 4, 1)), seed=4), SCALER)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_loaded_params_bitwise_equal(self, tmp_path):
        params = init_params(MlpSpec((2, 4, 1)), seed=3)
        path = tmp_path / "c.json"
        save_checkpoint(path, params, SCALER)
        back = load_checkpoint(path)
        for w0, w1 in zip(params.weights, back.params.weights):
            np.testing.assert_array_equal(w0, w1)
        assert back.scaler.to_dict() == SCALER.to_dict()

    @pytest.mark.parametrize("scaler", [None, "missing"])
    def test_scalerless_checkpoint_is_rejected(self, tmp_path, scaler):
        import json
        path = tmp_path / "c.json"
        save_checkpoint(path, init_params(MlpSpec((2, 4, 1)), seed=3), SCALER)
        payload = json.loads(path.read_text())
        if scaler is None:
            payload["scaler"] = None
        else:
            del payload["scaler"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="carries no scaler"):
            load_checkpoint(path)

    def test_shape_mismatch_errors(self, tmp_path):
        import json
        params = init_params(MlpSpec((2, 4, 1)), seed=3)
        path = tmp_path / "c.json"
        save_checkpoint(path, params, SCALER)
        payload = json.loads(path.read_text())
        payload["spec"]["layers"] = [3, 4, 1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="shape mismatch"):
            load_checkpoint(path)

    def test_relu_checkpoint_is_rejected(self, tmp_path):
        import json
        path = tmp_path / "c.json"
        save_checkpoint(path, init_params(MlpSpec((2, 4, 1)), seed=3), SCALER)
        payload = json.loads(path.read_text())
        assert payload["spec"]["activation"] == "tanh"
        payload["spec"]["activation"] = "relu"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"\bactivation\b"):
            load_checkpoint(path)

    def test_version_mismatch_errors(self, tmp_path):
        import json
        params = init_params(MlpSpec((2, 4, 1)), seed=3)
        path = tmp_path / "c.json"
        save_checkpoint(path, params, SCALER)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("change,named", [
        ({"scaler": {k: v for k, v in SCALER.to_dict().items() if k != "label_hi"}}, "label_hi"),
        ({"spec": [2, 4, 1]}, "spec"),
        ({"weights": 3}, "weights"),
        ({"weights": [[[math.nan] * 4] * 2, [[0.5]] * 4]}, "layer 0 weights"),
        ({"weights": [[[0.5] * 4] * 2, [["0.5"]] * 4]}, "layer 1 weights"),
        ({"biases": [[0.0] * 4, [math.inf]]}, "layer 1 biases"),
        ({"biases": [[True] + [0.0] * 3, [0.0]]}, "layer 0 biases"),
        ({"biases": [[0.0] * 3 + [10**400], [0.0]]}, "layer 0 biases"),
        ({"scaler": {**SCALER.to_dict(), "feature_mean": [0.0, math.nan]}}, "feature_mean"),
        ({"scaler": {**SCALER.to_dict(), "feature_std": [True, 2.0]}}, "feature_std"),
        ({"scaler": {**SCALER.to_dict(), "label_hi": math.inf}}, "label_hi"),
        ({"scaler": {**SCALER.to_dict(), "label_lo": "-1.0"}}, "label_lo"),
        ({"scaler": {**SCALER.to_dict(), "label_lo": -1e308, "label_hi": 1e308}}, "label_lo"),
    ], ids=["scaler-without-label_hi", "spec-list", "weights-number", "weight-nan",
            "weight-string", "bias-inf", "bias-bool", "bias-huge-int", "feature_mean-nan",
            "feature_std-bool", "label_hi-inf", "label_lo-string", "label-range-overflows"])
    def test_malformed_checkpoint_fails_naming_the_file_and_the_field(self, tmp_path, change,
                                                                       named):
        import json
        path = tmp_path / "c.json"
        save_checkpoint(path, init_params(MlpSpec((2, 4, 1)), seed=3), SCALER)
        path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
        with pytest.raises(ValueError, match=rf"^checkpoint {re.escape(str(path))}\b.*'?{named}\b"):
            load_checkpoint(path)

    def test_invalid_json_fails_naming_the_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"version": 1,')
        with pytest.raises(ValueError, match=rf"^checkpoint {re.escape(str(path))}: "):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [("feature_mean", [0.0, math.nan]),
                                             ("feature_std", [1.0, math.inf]),
                                             ("label_lo", -math.inf), ("label_hi", math.inf)])
    def test_scaler_params_reject_a_non_finite_entry_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            ScalerParams(**{**SCALER.to_dict(), field: value})

    @pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (-1e308, 0.0), (0.0, 1e308)])
    def test_scaler_params_reject_a_label_range_that_overflows(self, lo, hi):
        # past half the float64 range, label_map and the doubled label scaling overflow
        message = f"label_lo {lo!r} to label_hi {hi!r} overflows float64"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScalerParams(**{**SCALER.to_dict(), "label_lo": lo, "label_hi": hi})

    def test_missing_key_fails_naming_the_file_and_the_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"version": 1}')
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path} has no key 'spec'")):
            load_checkpoint(path)
