"""Dense neural-network core: parameter vectors, loss, gradients, optimizers.

Models are multilayer perceptrons with ReLU (or identity) hidden activations
and a softmax cross-entropy output. All parameters live in a single flat
float64 vector so that averaging, differencing and optimizer math are plain
vector arithmetic.

The public wrappers (loss, loss_grad, sgd_step, server_apply) never mutate
their inputs and return new vectors and states. The training hot path is
loss_and_grad_raw: it writes every intermediate, and the gradient it returns,
into a Workspace of buffers allocated once per (spec, batch rows), so a
training loop can take each step, and update its weights in place, without
allocating. It runs the same IEEE operations in the same order as the
allocating formulation, so results are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import FieldError

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


# a flat gradient (or pseudo-gradient) has the same fields and shape law as parameters
GradVector = ParamVector


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


def forward_logits(values: Array, spec: MlpSpec, inputs: Array, buffers: list[Array] | None = None) -> Array:
    """Forward pass on raw arrays, returning the logits. Hot path, skips wrapper allocation.

    Layer i is written into the leading rows of buffers[i] (one buffer per
    layer, each with at least as many rows as inputs) when buffers are given,
    else into a fresh array; hidden ReLUs run in place. Either way each layer
    is matmul, += b, then ReLU: the operations of h @ w + b, so the same bits.
    """
    m = inputs.shape[0]
    relu = spec.activation == "relu"
    layers = unflatten(values, spec)
    last = len(layers) - 1
    h = inputs
    for i, (w, b) in enumerate(layers):
        z = np.empty((m, w.shape[1])) if buffers is None else buffers[i][:m]
        np.matmul(h, w, out=z)
        z += b
        if i < last and relu:
            np.maximum(z, 0.0, out=z)
        h = z
    return h


class Workspace:
    """Reusable buffers for loss_and_grad_raw and loss_raw on batches of up to `rows` rows.

    Per layer: the pre-activations z, and for hidden layers the activations,
    the back-propagated deltas and (ReLU only) the active-unit masks. Also the
    flat gradient with its per-layer (W, b) views, and the inputs/labels
    buffers a training loop gathers each batch into. A batch of m <= rows
    rows uses the leading m rows of every buffer.
    """

    def __init__(self, spec: MlpSpec, rows: int):
        if rows < 1:
            raise ValueError(f"a workspace needs at least one row, got {rows}")
        self.spec = spec
        self.rows = rows
        outs = spec.layer_sizes[1:]
        relu = spec.activation == "relu"
        self.z = [np.empty((rows, d)) for d in outs]
        self.acts = [np.empty((rows, d)) for d in outs[:-1]] if relu else self.z[:-1]
        self.masks = [np.empty((rows, d), dtype=bool) for d in outs[:-1]] if relu else []
        self.deltas = [np.empty((rows, d)) for d in outs[:-1]]
        self.row_scratch = np.empty((rows, 1))
        self.row_index = np.arange(rows)
        self.grad = np.empty(spec.parameter_count())
        self.grad_layers = unflatten(self.grad, spec)
        self.inputs = np.empty((rows, spec.input_dim))
        self.labels = np.empty(rows, dtype=np.int64)

    def check_fits(self, spec: MlpSpec, rows: int) -> None:
        """Raise ShapeMismatchError unless batches of `rows` rows of spec fit here."""
        if self.spec != spec or rows > self.rows:
            raise ShapeMismatchError(
                f"batches of {rows} rows for spec {spec.layer_sizes} do not fit a workspace of "
                f"{self.rows} rows for spec {self.spec.layer_sizes}"
            )


def _softmax_inplace(logits: Array, row_scratch: Array) -> Array:
    """Overwrite logits (m, C) with their row-wise softmax; row_scratch is (m, 1).

    np.maximum.reduce and np.add.reduce are what np.max and np.sum run; called
    directly they skip a Python wrapper that costs microseconds per call,
    about as much as the arithmetic on a small batch.
    """
    np.maximum.reduce(logits, axis=1, keepdims=True, out=row_scratch)
    logits -= row_scratch
    np.exp(logits, out=logits)
    np.add.reduce(logits, axis=1, keepdims=True, out=row_scratch)
    logits /= row_scratch
    return logits


def _loss_from_probs(probs: Array, labels: Array) -> float:
    n = probs.shape[0]
    picked = probs[np.arange(n), labels]
    np.maximum(picked, PROB_FLOOR, out=picked)
    np.log(picked, out=picked)
    # the sum and division .mean() runs, negated after rather than before: the
    # same bits, without mean()'s Python wrappers
    return float(-(np.add.reduce(picked) / n))


def loss_and_grad_raw(
    values: Array, spec: MlpSpec, inputs: Array, labels: Array, workspace: Workspace | None = None
) -> tuple[float, Array]:
    """Mean cross-entropy and its exact gradient, both on raw arrays.

    Every intermediate is written into workspace (a temporary one sized to
    the batch when omitted). The returned gradient is workspace.grad, so the
    next call on the same workspace overwrites it.
    """
    m = inputs.shape[0]
    ws = workspace if workspace is not None else Workspace(spec, m)
    ws.check_fits(spec, m)
    relu = spec.activation == "relu"
    layers = unflatten(values, spec)
    last = len(layers) - 1

    # forward, keeping pre-activations for the backward pass
    h = inputs
    for i, (w, b) in enumerate(layers):
        z = ws.z[i][:m]
        np.matmul(h, w, out=z)
        z += b
        h = ws.acts[i][:m] if i < last else z
        if i < last and relu:
            np.maximum(z, 0.0, out=h)

    probs = _softmax_inplace(h, ws.row_scratch[:m])
    loss = _loss_from_probs(probs, labels)

    delta = probs  # the output delta (probs - onehot) / m overwrites the probabilities
    delta[ws.row_index[:m], labels] -= 1.0
    delta /= m

    for i in range(last, -1, -1):
        gw, gb = ws.grad_layers[i]
        a = inputs if i == 0 else ws.acts[i - 1][:m]
        if m == 1:
            # a one-row product is one rounded multiply added onto +0, as in the
            # dgemm, but einsum skips BLAS's fixed cost; wider batches keep BLAS,
            # whose summation order the results depend on
            np.einsum("ki,kj->ij", a, delta, out=gw)
        else:
            np.matmul(a.T, delta, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        if i > 0:
            upstream = ws.deltas[i - 1][:m]
            np.matmul(delta, layers[i][0].T, out=upstream)
            if relu:
                mask = ws.masks[i - 1][:m]
                np.greater(ws.z[i - 1][:m], 0.0, out=mask)
                np.multiply(upstream, mask, out=upstream)
            delta = upstream
    return loss, ws.grad


def loss_raw(
    values: Array, spec: MlpSpec, inputs: Array, labels: Array, workspace: Workspace | None = None
) -> float:
    """Mean softmax cross-entropy on raw arrays, unchecked; loss() validates and wraps it.

    With a workspace (which must fit the batch) the forward pass runs in its
    z buffers and allocates no layer; the value is the same either way.
    """
    m = inputs.shape[0]
    if workspace is None:
        buffers, row_scratch = None, np.empty((m, 1))
    else:
        workspace.check_fits(spec, m)
        buffers, row_scratch = workspace.z, workspace.row_scratch[:m]
    logits = forward_logits(values, spec, inputs, buffers)
    return _loss_from_probs(_softmax_inplace(logits, row_scratch), labels)


def loss(params: ParamVector, batch: Batch) -> float:
    """Mean softmax cross-entropy of the batch under the given parameters."""
    _check_batch(params.spec, batch)
    return loss_raw(params.values, params.spec, batch.inputs, batch.labels)


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
            raise FieldError("kind", f"must be sgd, adam or rmsprop, got {self.kind!r}")
        if not self.lr > 0:  # written so that nan fails too
            raise FieldError("lr", "must be positive")
        for name in ("beta1", "beta2", "rho"):  # a decay rate of 1 or more divides by zero or overflows
            if not 0 <= getattr(self, name) < 1:
                raise FieldError(name, "must be in [0, 1)")
        if not self.eps > 0:
            raise FieldError("eps", "must be positive")


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
