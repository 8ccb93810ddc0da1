"""Dense neural-network core: parameter vectors, loss, gradients, optimizers.

Models are multilayer perceptrons with ReLU (or identity) hidden activations
and a softmax cross-entropy output. All parameters live in a single flat
float64 vector so that averaging, differencing and optimizer math are plain
vector arithmetic. Every operation here is a pure function: inputs are never
mutated, new vectors/states are returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

Array = np.ndarray

PROB_FLOOR = 1e-12  # clamp for log() so confident wrong predictions stay finite


class ShapeMismatchError(ValueError):
    """A vector or batch does not fit the architecture it claims to."""


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: (input_dim, hidden..., output_dim), hidden activation."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"  # hidden layers only; output is always logits

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(n) for n in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output dims")
        if any(n < 1 for n in self.layer_sizes):
            raise ValueError(f"layer sizes must be >= 1, got {self.layer_sizes}")
        if self.activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    def parameter_count(self) -> int:
        """Total weights plus biases: sum of (d_in + 1) * d_out over layers."""
        sizes = self.layer_sizes
        return sum((din + 1) * dout for din, dout in zip(sizes[:-1], sizes[1:]))


def _check_vector(values: Array, spec: MlpSpec) -> Array:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size != spec.parameter_count():
        raise ShapeMismatchError(
            f"vector of length {values.size} does not fit spec {spec.layer_sizes} "
            f"(expected {spec.parameter_count()})"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("vector contains non-finite entries")
    return values


@dataclass(frozen=True)
class ParamVector:
    """Flat model parameters plus the architecture they parameterize."""

    values: Array
    spec: MlpSpec

    def __post_init__(self):
        object.__setattr__(self, "values", _check_vector(self.values, self.spec))


@dataclass(frozen=True)
class GradVector:
    """Flat gradient (or pseudo-gradient) with the same shape law as ParamVector."""

    values: Array
    spec: MlpSpec

    def __post_init__(self):
        object.__setattr__(self, "values", _check_vector(self.values, self.spec))


@dataclass(frozen=True)
class Batch:
    """A design matrix (n, input_dim) and integer class labels (n,)."""

    inputs: Array
    labels: Array

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2 or inputs.shape[0] < 1:
            raise ValueError(f"inputs must be a nonempty 2-d matrix, got {inputs.shape}")
        if labels.shape != (inputs.shape[0],):
            raise ValueError("labels must be one class index per input row")
        if labels.min() < 0:
            raise ValueError("labels must be non-negative class indices")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


def unflatten(values: Array, spec: MlpSpec) -> list[tuple[Array, Array]]:
    """Split a flat vector into per-layer (W, b) views. Views share memory."""
    out = []
    offset = 0
    sizes = spec.layer_sizes
    for din, dout in zip(sizes[:-1], sizes[1:]):
        w = values[offset : offset + din * dout].reshape(din, dout)
        offset += din * dout
        b = values[offset : offset + dout]
        offset += dout
        out.append((w, b))
    return out


def init_params(spec: MlpSpec, seed: int) -> ParamVector:
    """Deterministic init: zero-mean weights scaled by fan-in, zero biases.

    ReLU specs use scale sqrt(2 / fan_in), identity specs sqrt(1 / fan_in).
    """
    rng = np.random.default_rng(seed)
    values = np.zeros(spec.parameter_count())
    gain = 2.0 if spec.activation == "relu" else 1.0
    for w, b in unflatten(values, spec):
        din = w.shape[0]
        w[:] = rng.normal(0.0, np.sqrt(gain / din), size=w.shape)
        b[:] = 0.0
    return ParamVector(values, spec)


def _check_batch(spec: MlpSpec, batch: Batch) -> None:
    if batch.inputs.shape[1] != spec.input_dim:
        raise ShapeMismatchError(
            f"batch has {batch.inputs.shape[1]} features, spec expects {spec.input_dim}"
        )
    if batch.labels.max() >= spec.num_classes:
        raise ShapeMismatchError(
            f"label {int(batch.labels.max())} out of range for {spec.num_classes} classes"
        )


def forward_logits(values: Array, spec: MlpSpec, inputs: Array) -> Array:
    """Forward pass on raw arrays. Hot path, skips wrapper allocation."""
    h = inputs
    layers = unflatten(values, spec)
    for i, (w, b) in enumerate(layers):
        h = h @ w + b
        if i < len(layers) - 1 and spec.activation == "relu":
            h = np.maximum(h, 0.0)
    return h


def _softmax(logits: Array) -> Array:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _loss_from_probs(probs: Array, labels: Array) -> float:
    n = probs.shape[0]
    picked = probs[np.arange(n), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def loss_and_grad_raw(values: Array, spec: MlpSpec, inputs: Array, labels: Array) -> tuple[float, Array]:
    """Mean cross-entropy and its exact gradient, both on raw arrays."""
    # forward, keeping pre-activations for the backward pass
    layers = unflatten(values, spec)
    acts = [inputs]
    pre = []
    h = inputs
    for i, (w, b) in enumerate(layers):
        z = h @ w + b
        pre.append(z)
        if i < len(layers) - 1 and spec.activation == "relu":
            h = np.maximum(z, 0.0)
        else:
            h = z
        acts.append(h)

    probs = _softmax(acts[-1])
    loss = _loss_from_probs(probs, labels)

    n = inputs.shape[0]
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    grad = np.empty_like(values)
    grad_layers = unflatten(grad, spec)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw, gb = grad_layers[i]
        gw[:] = acts[i].T @ delta
        gb[:] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ w.T
            if spec.activation == "relu":
                delta = delta * (pre[i - 1] > 0)
    return loss, grad


def loss(params: ParamVector, batch: Batch) -> float:
    """Mean softmax cross-entropy of the batch under the given parameters."""
    _check_batch(params.spec, batch)
    logits = forward_logits(params.values, params.spec, batch.inputs)
    return _loss_from_probs(_softmax(logits), batch.labels)


def loss_grad(params: ParamVector, batch: Batch) -> tuple[float, GradVector]:
    """Loss plus its gradient w.r.t. every parameter, via backpropagation."""
    _check_batch(params.spec, batch)
    value, grad = loss_and_grad_raw(params.values, params.spec, batch.inputs, batch.labels)
    return value, GradVector(grad, params.spec)


def sgd_step(params: ParamVector, grad: GradVector, lr: float) -> ParamVector:
    """One plain gradient step: params - lr * grad."""
    if params.spec != grad.spec:
        raise ShapeMismatchError("params and grad disagree on architecture")
    return ParamVector(params.values - lr * grad.values, params.spec)


@dataclass(frozen=True)
class ServerOptimizerState:
    """Server-side optimizer applied to the aggregated pseudo-gradient.

    kind "sgd" is a plain step with rate lr. "adam" and "rmsprop" keep moment
    buffers sized like the parameter vector; buffers start lazily on first
    apply. States are immutable, server_apply returns the advanced copy.
    """

    kind: str = "sgd"
    lr: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    rho: float = 0.9
    # running state, advanced by server_apply; the rest are hyperparameters
    step: int = field(default=0, metadata={"config": False})
    m: Array | None = field(default=None, metadata={"config": False})
    v: Array | None = field(default=None, metadata={"config": False})

    def __post_init__(self):
        if self.kind not in ("sgd", "adam", "rmsprop"):
            raise ValueError(f"unknown server optimizer {self.kind!r}")
        if self.lr <= 0:
            raise ValueError("server learning rate must be positive")


def server_apply(
    state: ServerOptimizerState, params: ParamVector, pseudo_grad: GradVector
) -> tuple[ParamVector, ServerOptimizerState]:
    """Advance the global weights one server step along the pseudo-gradient."""
    if params.spec != pseudo_grad.spec:
        raise ShapeMismatchError("params and pseudo-gradient disagree on architecture")
    g = pseudo_grad.values
    t = state.step + 1

    if state.kind == "sgd":
        new_values = params.values - state.lr * g
        new_state = replace(state, step=t)
    elif state.kind == "adam":
        m = state.m if state.m is not None else np.zeros_like(g)
        v = state.v if state.v is not None else np.zeros_like(g)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        new_values = params.values - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        new_state = replace(state, step=t, m=m, v=v)
    else:  # rmsprop
        v = state.v if state.v is not None else np.zeros_like(g)
        v = state.rho * v + (1.0 - state.rho) * g * g
        new_values = params.values - state.lr * g / (np.sqrt(v) + state.eps)
        new_state = replace(state, step=t, v=v)

    return ParamVector(new_values, params.spec), new_state
