"""Dense feed-forward regressors with explicit backprop and Adam updates.

Everything runs in double precision on plain numpy arrays.  The parameters
live in one contiguous vector, layer by layer, each layer's (fan_in, fan_out)
weight matrix followed by its bias vector; per-layer ``weights`` and
``biases`` are views into it, and a gradient uses the same layout, so an
optimizer step is a handful of whole-vector operations.  Training works in
place: the backward pass writes into a gradient its caller owns, and an Adam
step updates the parameters and both moment vectors where they live, so a
training step builds no parameter-shaped object.  Hidden layers are tanh;
the output layer is linear and one unit wide.  The backward pass reads the
batch from the activations its forward pass kept at the same parameters,
rows first.  A checkpoint holds the parameters and the scaler they were
trained under, since a model is only usable with its scaler; it serializes
to JSON with full float precision, so a save/load round trip is bitwise
exact.  The file, read by :func:`craft.data.read_json`, keeps per-layer lists
of finite numbers, whose shapes are checked against the spec at load: a flat
list could not tell layers [2, 3, 1] from [4, 2, 1], which both have 13
parameters.  It also keeps ``"activation": "tanh"``, so format version 1 is
unchanged; any other activation, like any other fault, fails naming the file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ScalerParams, _check_finite, _check_integer, read_json, write_json

__all__ = [
    "MlpSpec",
    "RegressorParams",
    "AdamState",
    "Checkpoint",
    "init_params",
    "forward_batch",
    "backward",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
]

_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths ``[d, h_1, ..., h_k, 1]``."""

    layer_sizes: tuple

    def __post_init__(self):
        for size in self.layer_sizes:
            _check_integer("layer size", size, minimum=1)
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        if sizes[-1] != 1:
            raise ValueError("output layer must have exactly one unit")
        layout, start = [], 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            mid = start + fan_in * fan_out
            layout.append((slice(start, mid), (fan_in, fan_out), slice(mid, mid + fan_out)))
            start = mid + fan_out
        # per layer: (weights slice, weights shape, biases slice) in the flat vector
        object.__setattr__(self, "_layout", tuple(layout))
        object.__setattr__(self, "n_params", start)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]


class RegressorParams:
    """Network parameters stored as one contiguous float64 vector.

    ``weights[i]`` (fan_in, fan_out) and ``biases[i]`` (fan_out,) are views
    into ``vector``, laid out layer by layer, weights before biases.  A
    gradient is a ``RegressorParams`` too: same spec and layout, its vector
    holding the partial derivatives.
    """

    def __init__(self, spec: MlpSpec, vector):
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (spec.n_params,):
            raise ValueError(
                f"expected a parameter vector of shape ({spec.n_params},), got {vector.shape}")
        self.spec = spec
        self.vector = vector
        self.weights = [vector[w].reshape(shape) for w, shape, _ in spec._layout]
        self.biases = [vector[b] for _, _, b in spec._layout]

    @classmethod
    def from_blocks(cls, spec: MlpSpec, weights, biases) -> "RegressorParams":
        """Pack per-layer weight matrices and bias vectors into one vector."""
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if len(weights) != len(spec._layout) or len(biases) != len(spec._layout):
            raise ValueError("layer count does not match its spec")
        for (_, shape, _), w, b in zip(spec._layout, weights, biases):
            if w.shape != shape or b.shape != shape[1:]:
                raise ValueError(f"shape mismatch: expected {shape}, got {w.shape} / {b.shape}")
        return cls(spec, np.concatenate([a.ravel() for wb in zip(weights, biases) for a in wb]))

    def copy(self) -> "RegressorParams":
        return RegressorParams(self.spec, self.vector.copy())

    def blocks(self):
        """Yield (name, view) pairs over every parameter block."""
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            yield f"layer {i} weights", w
            yield f"layer {i} biases", b


def init_params(spec: MlpSpec, seed: int = 0) -> RegressorParams:
    """Seeded uniform(-s, s) weights with s = sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    params = RegressorParams(spec, np.zeros(spec.n_params))
    for w in params.weights:
        fan_in, fan_out = w.shape
        s = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-s, s, size=(fan_in, fan_out))
    return params


def forward_batch(params: RegressorParams, X, cache: list | None = None) -> np.ndarray:
    """Predictions for every row of ``X``, shape (n,).

    Pass an empty list as ``cache`` to keep the post-activation values per
    layer, input first; :func:`backward` at the same parameters and rows
    reads them.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.spec.input_dim:
        raise ValueError(f"expected shape (n, {params.spec.input_dim}), got {X.shape}")
    acts = [] if cache is None else cache
    acts.append(X)
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w
        z += b
        acts.append(np.tanh(z, out=z) if i < last else z)
    return acts[-1][:, 0]


def backward(params: RegressorParams, upstream, cache: list, grads: RegressorParams) -> None:
    """Exact gradient of sum_i upstream_i * f(x_i) over all parameters,
    written into ``grads``.

    ``cache``, required, is the activation list a :func:`forward_batch` call
    at the same parameters filled; its first entry holds the rows x_i.
    ``grads`` is a gradient in the layout of ``params`` that the caller owns;
    every entry is overwritten, so it may hold anything on the way in.
    """
    if len(cache) != len(params.weights) + 1:
        raise ValueError("cache does not hold one activation per layer")
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (len(cache[0]),):
        raise ValueError("upstream must be a vector with one entry per cached row")
    if grads.spec != params.spec:
        raise ValueError("grads must have the layout of params")
    delta = upstream[:, None]
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(cache[i].T, delta, out=grads.weights[i])
        np.add.reduce(delta, axis=0, out=grads.biases[i])
        if i > 0:
            slope = np.square(cache[i])
            delta = delta @ params.weights[i].T
            delta *= np.subtract(1.0, slope, out=slope)


_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


@dataclass
class AdamState:
    """First and second moment vectors in the parameter layout, plus step
    counter; :func:`adam_step` updates all three in place."""

    m: np.ndarray
    v: np.ndarray
    t: int
    learning_rate: float

    @classmethod
    def init(cls, params: RegressorParams, learning_rate: float) -> "AdamState":
        return cls(np.zeros_like(params.vector), np.zeros_like(params.vector), 0, learning_rate)


def adam_step(params: RegressorParams, grads: RegressorParams, state: AdamState) -> None:
    """One adaptive-moment update, in place: ``params.vector``, ``state.m``,
    ``state.v`` and ``state.t`` take their new values.  A non-finite gradient
    raises before any of them is written."""
    g = grads.vector
    if not np.isfinite(g).all():
        name = next(name for name, block in grads.blocks() if not np.isfinite(block).all())
        raise ValueError(f"non-finite gradient in {name}")
    state.t += 1
    m, v = state.m, state.v
    # in place, yet rounding exactly as m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g**2
    # and step = lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps): the same products
    # and quotients, two of them commuted, into two scratch vectors
    scratch = np.multiply(g, 1.0 - _BETA1)
    m *= _BETA1
    m += scratch
    np.square(g, out=scratch)
    scratch *= 1.0 - _BETA2
    v *= _BETA2
    v += scratch
    denom = np.divide(v, 1.0 - _BETA2**state.t)
    np.sqrt(denom, out=denom)
    denom += _EPSILON
    np.divide(m, 1.0 - _BETA1**state.t, out=scratch)
    scratch *= state.learning_rate
    scratch /= denom
    params.vector -= scratch


@dataclass(frozen=True)
class Checkpoint:
    params: RegressorParams
    scaler: ScalerParams


def save_checkpoint(path, params: RegressorParams, scaler: ScalerParams) -> None:
    payload = {
        "version": _CHECKPOINT_VERSION,
        "spec": {"layers": list(params.spec.layer_sizes), "activation": "tanh"},
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "scaler": scaler.to_dict(),
    }
    write_json(path, payload)


def load_checkpoint(path) -> Checkpoint:
    payload = read_json(path, "checkpoint")
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path} holds a {type(payload).__name__}, not a JSON object")
    try:
        if payload.get("version") != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported version {payload.get('version')!r}")
        for key, kind in (("spec", dict), ("weights", list), ("biases", list)):
            if not isinstance(payload[key], kind):
                raise ValueError(f"{key} must be a {kind.__name__}")
        weights, biases, scaler = payload["weights"], payload["biases"], payload.get("scaler")
        layers, activation = payload["spec"]["layers"], payload["spec"].get("activation")
        if activation != "tanh":
            raise ValueError(f"unsupported activation {activation!r}; only tanh is supported")
        if not scaler:
            raise ValueError("carries no scaler; retrain the source model")
        for i, (w, b) in enumerate(zip(weights, biases)):
            _check_finite(f"layer {i} weights", w)
            _check_finite(f"layer {i} biases", b)
        for key, value in scaler.items() if isinstance(scaler, dict) else ():
            _check_finite(f"scaler {key}", value)
        return Checkpoint(RegressorParams.from_blocks(MlpSpec(tuple(layers)), weights, biases),
                          ScalerParams(**scaler))
    except KeyError as exc:
        raise ValueError(f"checkpoint {path} has no key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
