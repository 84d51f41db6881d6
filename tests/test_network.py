import math
import re

import numpy as np
import pytest
from oracles import grad_check, gradient, nan_gradient, reference_adam

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
            backward(params, np.ones(3), [], nan_gradient(params))
        cache: list = []
        forward_batch(params, X[:2], cache)
        with pytest.raises(ValueError, match="one entry per cached row"):
            backward(params, np.ones(3), cache, nan_gradient(params))

    def test_rejects_a_gradient_buffer_of_another_layout(self):
        params = init_params(MlpSpec((2, 4, 1)), seed=7)
        cache: list = []
        forward_batch(params, np.ones((3, 2)), cache)
        other = nan_gradient(init_params(MlpSpec((4, 2, 1)), seed=7))  # also 13 parameters
        with pytest.raises(ValueError, match="^grads must have the layout of params$"):
            backward(params, np.ones(3), cache, other)

    def test_writes_into_and_returns_the_buffer_it_was_given(self):
        params = init_params(MlpSpec((3, 5, 1)), seed=8)
        X = np.random.default_rng(9).normal(size=(4, 3))
        upstream = np.random.default_rng(10).normal(size=4)
        cache: list = []
        forward_batch(params, X, cache)
        buffer = nan_gradient(params)
        storage = buffer.vector
        assert backward(params, upstream, cache, buffer) is buffer
        assert buffer.vector is storage
        np.testing.assert_array_equal(buffer.vector, gradient(params, X, upstream).vector)
        # a second pass overwrites every entry, whatever the buffer held
        buffer.vector[:] = 7.0
        backward(params, upstream, cache, buffer)
        np.testing.assert_array_equal(buffer.vector, gradient(params, X, upstream).vector)


def ones_gradient(params):
    return RegressorParams(params.spec, np.ones_like(params.vector))


def zero_gradient(params):
    return RegressorParams(params.spec, np.zeros_like(params.vector))


def random_gradient(params, rng):
    return RegressorParams(params.spec, rng.normal(size=params.spec.n_params))


class TestAdam:
    def test_first_step_hand_value(self):
        params = scalar_linear(0.0, 0.0)
        state = AdamState.init(params, learning_rate=0.1)
        assert adam_step(params, ones_gradient(params), state) is None
        expected_delta = -0.1 * (1.0 / (1.0 + 1e-8))
        assert abs(params.weights[0][0, 0] - expected_delta) < 1e-15
        assert state.t == 1

    def test_zero_gradient_leaves_params_unchanged(self):
        params = init_params(MlpSpec((2, 3, 1)), seed=0)
        before = params.vector.copy()
        state = AdamState.init(params, learning_rate=0.1)
        for _ in range(5):
            adam_step(params, zero_gradient(params), state)
        np.testing.assert_array_equal(params.vector, before)
        assert state.t == 5

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
            adam_step(params, ones_gradient(params), state)
        assert abs(params.weights[0][0, 0] - theta) < 1e-15

    def test_random_gradient_steps_match_the_block_recurrence_bit_for_bit(self):
        params = init_params(MlpSpec((3, 5, 4, 1)), seed=2)
        weights = [w.copy() for w in params.weights]
        biases = [b.copy() for b in params.biases]
        moments = {}
        state = AdamState.init(params, learning_rate=0.03)
        rng = np.random.default_rng(11)
        for t in range(1, 8):
            grads = random_gradient(params, rng)
            grads.vector *= 10.0 ** rng.integers(-6, 3, size=grads.vector.size)
            adam_step(params, grads, state)
            weights, biases = reference_adam(weights, biases, grads, moments, t, 0.03)
            expected = RegressorParams.from_blocks(params.spec, weights, biases)
            np.testing.assert_array_equal(params.vector, expected.vector)
        layers = range(len(params.weights))
        for k, moment in enumerate((state.m, state.v)):
            expected = RegressorParams.from_blocks(params.spec,
                                                   [moments[("w", i)][k] for i in layers],
                                                   [moments[("b", i)][k] for i in layers])
            np.testing.assert_array_equal(moment, expected.vector)
        assert state.t == 7

    def test_zero_learning_rate_is_identity(self):
        params = init_params(MlpSpec((3, 4, 1)), seed=1)
        before = params.vector.copy()
        state = AdamState.init(params, learning_rate=0.0)
        adam_step(params, random_gradient(params, np.random.default_rng(0)), state)
        np.testing.assert_array_equal(params.vector, before)

    def test_nonfinite_gradient_names_block(self):
        # and raises before it writes the parameters, either moment or the step count
        params = init_params(MlpSpec((2, 3, 1)), seed=0)
        state = AdamState.init(params, learning_rate=0.1)
        rng = np.random.default_rng(3)
        for _ in range(3):
            adam_step(params, random_gradient(params, rng), state)
        before = params.vector.copy(), state.m.copy(), state.v.copy()
        for bad in (np.nan, np.inf, -np.inf):
            grads = random_gradient(params, rng)
            grads.weights[1][0, 0] = bad
            with pytest.raises(ValueError, match="^non-finite gradient in layer 1 weights$"):
                adam_step(params, grads, state)
            for was, now in zip(before, (params.vector, state.m, state.v)):
                np.testing.assert_array_equal(now, was)
            assert state.t == 3


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
        message = f"checkpoint {path}: unsupported activation 'relu'; only tanh is supported"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    def test_version_mismatch_errors(self, tmp_path):
        import json
        params = init_params(MlpSpec((2, 4, 1)), seed=3)
        path = tmp_path / "c.json"
        save_checkpoint(path, params, SCALER)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(f'checkpoint {path}: unsupported version 99')}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text,kind", [("[1, 2]", "list"), ("1", "int"), ("null", "NoneType")])
    def test_a_file_that_is_not_a_json_object_fails_naming_it(self, tmp_path, text, kind):
        path = tmp_path / "c.json"
        path.write_text(text)
        message = f"checkpoint {path} holds a {kind}, not a JSON object"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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

    @pytest.mark.parametrize("scaler,message", [
        ({"feature_mean": [0.0, 1.0, 2.0]},
         "feature_mean and feature_std must be 1-d and equally long"),
        ({"feature_std": [1.0, 0.0]}, "feature_std entries must be positive"),
        ({"feature_std": [-1.0, 2.0]}, "feature_std entries must be positive"),
        ({"label_lo": 1.0}, "label_lo must lie strictly below label_hi"),
        ({"label_lo": 2.0}, "label_lo must lie strictly below label_hi"),
    ], ids=["lengths-differ", "std-zero", "std-negative", "label-range-empty",
            "label-range-reversed"])
    def test_a_scaler_that_breaks_a_rule_fails_naming_the_file(self, tmp_path, scaler, message):
        import json
        path = tmp_path / "c.json"
        save_checkpoint(path, init_params(MlpSpec((2, 4, 1)), seed=3), SCALER)
        payload = json.loads(path.read_text())
        payload["scaler"] = {**payload["scaler"], **scaler}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^checkpoint {re.escape(str(path))}: {message}$"):
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


@pytest.mark.parametrize("call,message", [
    (lambda: RegressorParams(MlpSpec((1, 1)), np.zeros(3)),
     r"^expected a parameter vector of shape \(2,\), got \(3,\)$"),
    (lambda: RegressorParams.from_blocks(MlpSpec((1, 1)), [], []), "^layer count does not match its spec$"),
], ids=["vector-length", "layer-count"])
def test_each_input_check_fails_with_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
