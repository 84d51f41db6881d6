import pytest

import craft.engine
import craft.harness
import craft.metrics
import craft.network
from bench.tracing import Tracer, WrapPoint, assert_clean


def test_wrapper_passes_values_and_exceptions_through():
    original = craft.metrics.rmse
    tracer = Tracer([WrapPoint("metrics.rmse", "craft.metrics", "rmse")])
    with pytest.raises(ValueError) as plain:
        original([1.0, 2.0], [1.0])
    with tracer.installed():
        assert craft.metrics.rmse is not original
        assert craft.harness.rmse is craft.metrics.rmse  # the harness's own import is wrapped too
        assert craft.metrics.rmse([1.0, 2.0], [1.0, 4.0]) == original([1.0, 2.0], [1.0, 4.0])
        with pytest.raises(ValueError) as traced:
            craft.metrics.rmse([1.0, 2.0], [1.0])
    assert type(traced.value) is type(plain.value)
    assert str(traced.value) == str(plain.value)
    assert tracer.stat("metrics.rmse").calls == 2


def test_wrappers_are_removed_after_the_block_even_on_error():
    originals = (craft.network.forward_batch, craft.engine.forward_batch,
                 craft.metrics.forward_batch)
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            with pytest.raises(RuntimeError):
                assert_clean()
            raise RuntimeError("boom")
    assert (craft.network.forward_batch, craft.engine.forward_batch,
            craft.metrics.forward_batch) == originals
    assert_clean()


def test_self_time_excludes_child_spans():
    tracer = Tracer([WrapPoint("metrics.evaluate", "craft.metrics", "evaluate"),
                     WrapPoint("network.forward_batch", "craft.network", "forward_batch")])
    from bench.workloads import TINY
    from craft.data import fit_scaler, generate_synthetic
    from craft.network import MlpSpec, init_params

    _, train, _, test = generate_synthetic(TINY.spec())
    params = init_params(MlpSpec((train.d, 4, 1)))
    with tracer.installed():
        craft.metrics.evaluate(params, test, fit_scaler(train))
    outer, inner = tracer.stat("metrics.evaluate"), tracer.stat("network.forward_batch")
    assert inner.calls == 1
    assert outer.self_seconds == pytest.approx(outer.seconds - inner.seconds)


def test_missing_wrap_point_is_reported_absent(monkeypatch):
    monkeypatch.delattr(craft.engine, "fit_tl")
    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == ["craft.engine.fit_tl"]
    assert_clean()
