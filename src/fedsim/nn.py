"""Dense neural-network core: parameter vectors, loss, gradients, optimizers.

Models are multilayer perceptrons with ReLU (or identity) hidden activations
and a softmax cross-entropy output. All parameters live in a single flat
float64 vector so that averaging, differencing and optimizer math are plain
vector arithmetic.

The public wrappers (loss, loss_grad, sgd_step, server_apply) never mutate
their inputs and return new vectors and states. The training hot path is
loss_and_grad_raw: it writes every intermediate into a Workspace of buffers
allocated once per (spec, batch rows, models), and its gradient there or
into a stack the caller names, so a training loop can take each step, and
update its weights in place, without allocating; the Workspace keeps the
layer views of the caller's stacks, in its one cache, until release(). It
runs forward_logits' one layer loop, and each layer's one buffer holds its
output, then its delta. It runs the same IEEE operations in the same order
as the allocating formulation, so results are bit-identical. The raw step
functions take a stack of k models, a (k, P) array with (k, m, d) inputs,
and step the k independent models in lockstep with the bits each gets
alone; one model is a stack of one. The public wrappers and forward_logits
take a (P,) vector. The kernel returns lr times the gradient, one model's lr
on 2 to FOLD_ROWS rows as its dgemm's alpha: the bits of a later *= lr.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import machine
from .config import FieldError

Array = np.ndarray

try:  # the C routine np.einsum runs when not asked to optimize, called without its Python dispatcher
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # numpy before 2.0
    from numpy.core.multiarray import c_einsum as _c_einsum

PROB_FLOOR = 1e-12  # clamp for log() so confident wrong predictions stay finite
FOLD_ROWS = 256  # alpha is exact within one OpenBLAS K block (384 rows on SkylakeX); batches take 10-32


class ShapeMismatchError(ValueError):
    """A vector or batch does not fit the architecture it claims to."""


class NonFiniteError(ValueError):
    """A vector has a nan or infinite entry."""


@dataclass(frozen=True)
class MlpSpec:
    """Architecture: (input_dim, hidden..., output_dim), hidden activation."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"  # hidden layers only; output is always logits

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(n) for n in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise FieldError("layer_sizes", "needs at least input and output dims")
        if any(n < 1 for n in self.layer_sizes):
            raise FieldError("layer_sizes", f"must all be >= 1, got {self.layer_sizes}")
        if self.activation not in ("relu", "identity"):
            raise FieldError("activation", f"must be relu or identity, got {self.activation!r}")
        sizes = self.layer_sizes
        # not a field, so equality and hashing ignore it; every client's vector checks against it
        object.__setattr__(self, "_parameter_count", sum((din + 1) * dout for din, dout in zip(sizes[:-1], sizes[1:])))
        if 8 * self._parameter_count > np.iinfo(np.intp).max:  # numpy could not even describe its float64 vector
            raise FieldError("layer_sizes", f"give {self._parameter_count} parameters, more than one array can hold")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    def parameter_count(self) -> int:
        """Total weights plus biases: sum of (d_in + 1) * d_out over layers."""
        return self._parameter_count


def _check_vector(values: Array, spec: MlpSpec) -> Array:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size != spec.parameter_count():
        raise ShapeMismatchError(
            f"vector of length {values.size} does not fit spec {spec.layer_sizes} "
            f"(expected {spec.parameter_count()})"
        )
    if not np.isfinite(values).all():  # the method skips np.all's Python wrapper, a few us on every client
        raise NonFiniteError("vector contains non-finite entries")
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
    """Split a flat vector into per-layer (W, b) views. Views share memory.

    A stack of k vectors, shape (k, P), splits into W of shape (k, d_in,
    d_out) and b of shape (k, 1, d_out): one row of biases per vector, which
    broadcasts over that vector's batch rows.
    """
    out = []
    offset = 0
    lead = values.shape[:-1]
    sizes = spec.layer_sizes
    for din, dout in zip(sizes[:-1], sizes[1:]):
        w = values[..., offset : offset + din * dout].reshape(lead + (din, dout))
        offset += din * dout
        b = values[..., offset : offset + dout]
        if lead:
            b = b.reshape(lead + (1, dout))
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


def _forward(layers: list[tuple[Array, Array]], relu: bool, inputs: Array, outs: list[Array]) -> Array:
    """The one forward layer loop, for loss_and_grad_raw and forward_logits; returns outs[-1], the logits.

    Layer i is matmul into outs[i], += b, then on hidden ReLU layers
    max(., 0) in place: the operations of h @ w + b, so the same bits.
    """
    last = len(layers) - 1
    h = inputs
    for i, (w, b) in enumerate(layers):
        h = np.matmul(h, w, out=outs[i])
        h += b
        if i < last and relu:
            np.maximum(h, 0.0, out=h)
    return h


def forward_logits(values: Array, spec: MlpSpec, inputs: Array, buffers: list, layers: list | None = None) -> Array:
    """Forward pass on raw arrays, returning the logits. Hot path, skips wrapper allocation.

    values (P,) with inputs (m, d) is one model; a stack (k, P) with inputs
    (k, m, d) is k models, each on its own batch. Each layer's output is
    written into the leading m rows of its buffer in buffers (one per layer,
    each with at least as many rows as inputs); the last one holds the logits.
    layers, when given, are unflatten(values, spec), as a caller keeps them.
    """
    layers = unflatten(values, spec) if layers is None else layers
    m = inputs.shape[-2]
    return _forward(layers, spec.activation == "relu", inputs, [buf[..., :m, :] for buf in buffers])


class _Views:
    """A Workspace's buffers as (k, m, .) views for k models on m rows; outs[i] holds layer i's output, then its delta.

    Built once per shape, the gradient's per-layer (W, b) views among them.
    """

    def __init__(self, ws: Workspace, k: int, m: int):
        spec = ws.spec
        outs = spec.layer_sizes[1:]

        def view(flat: Array, d: int) -> Array:
            return flat[: k * m * d].reshape(k, m, d)

        self.outs = [view(flat, d) for flat, d in zip(ws._outs, outs)]
        self.masks = [view(flat, d) for flat, d in zip(ws._masks, outs)]
        self.row_scratch = view(ws._row_scratch, 1)
        self.inputs = view(ws._inputs, spec.input_dim)
        self.labels = ws._labels[: k * m].reshape(k, m)
        self.probs = ws._outs[-1][: k * m * outs[-1]]  # the (k, m, C) probabilities, flat
        self.label_base = np.arange(0, k * m * outs[-1], outs[-1]).reshape(k, m)  # + labels: each row's label entry
        self.grad = ws._grad[: k * spec.parameter_count()].reshape(k, -1)
        self.grad_layers = unflatten(self.grad, spec)
        self.grad_address = self.grad.ctypes.data  # taken once: .ctypes costs microseconds a call
        self.relu = spec.activation == "relu"
        self.fold = k == 1 and 1 < m <= FOLD_ROWS and min(spec.layer_sizes) > 1  # numpy runs a side of 1 as gemv
        self.addresses = [flat.ctypes.data for flat in (ws._inputs, *ws._outs)]  # each layer's input, then delta


class Workspace:
    """Reusable buffers for loss_and_grad_raw and loss_raw on a stack of up to `clients` models, `rows` rows each.

    One float buffer per layer holds its output, then its back-propagated
    delta; hidden ReLU layers also keep an active-unit mask. Also the flat
    gradient and the inputs/labels buffers a training loop gathers each batch
    into, each flat, of `clients` times `rows` rows; fit() views the leading
    k * m rows of each as a contiguous (k, m, .) array, once per shape. Views
    of a caller's arrays (layers, broadcast) are kept with the arrays in one
    id-keyed cache until release().
    """

    def __init__(self, spec: MlpSpec, rows: int, clients: int = 1):
        if rows < 1 or clients < 1:
            raise ValueError(f"a workspace needs at least one row and one client, got {rows} and {clients}")
        self.spec = spec
        self.rows = rows
        self.clients = clients
        outs = spec.layer_sizes[1:]
        size = clients * rows
        self._outs = [np.empty(size * d) for d in outs]
        self._masks = [np.empty(size * d, dtype=bool) for d in outs[:-1]] if spec.activation == "relu" else []
        self._row_scratch = np.empty(size)
        self._inputs = np.empty(size * spec.input_dim)
        self._labels = np.empty(size, dtype=np.int64)
        self._grad = np.empty(clients * spec.parameter_count())
        self._views: dict[tuple[int, int], _Views] = {}
        self._kept: dict = {}

    def fit(self, spec: MlpSpec, k: int, m: int) -> _Views:
        """The buffers for m rows of each of a stack of k models of spec; raises ShapeMismatchError unless they fit."""
        views = self._views.get((k, m))
        if views is None or (spec is not self.spec and spec != self.spec):
            if self.spec != spec or m > self.rows or k > self.clients:
                raise ShapeMismatchError(
                    f"batches of {m} rows for {k} model(s) of spec {spec.layer_sizes} do not fit a "
                    f"workspace of {self.rows} rows for {self.clients} of spec {self.spec.layer_sizes}"
                )
            views = self._views[k, m] = _Views(self, k, m)
        return views

    def _keep(self, key, array: Array, build):
        """build()'s views of array, kept under key with array (so no other array takes its id) until release()."""
        entry = self._kept.get(key)
        if entry is None:
            if len(self._kept) >= 16:  # a caller that passes a new array each call keeps at most 16
                self._kept.clear()
            entry = self._kept[key] = (array, build())
        return entry[1]

    def layers(self, stack: Array) -> list[tuple[Array, Array]]:
        """unflatten(stack), kept with stack until release()."""
        return self._keep(id(stack), stack, lambda: unflatten(stack, self.spec))

    def broadcast(self, values: Array, k: int) -> Array:
        """values (P,) as a read-only stride-0 (k, P) stack, kept with values until release()."""
        return self._keep((id(values), k), values, lambda: np.broadcast_to(values, (k, values.size)))

    def release(self) -> None:
        """Drop every kept view, and with it every caller's array the workspace held (run_round's once a round)."""
        self._kept.clear()


def _softmax_inplace(logits: Array, row_scratch: Array) -> Array:
    """Overwrite logits (..., m, C) with their row-wise softmax; row_scratch is (..., m, 1).

    np.maximum.reduce and np.add.reduce are what np.max and np.sum run; called
    directly they skip a Python wrapper that costs microseconds per call,
    about as much as the arithmetic on a small batch.
    """
    np.maximum.reduce(logits, axis=-1, keepdims=True, out=row_scratch)
    logits -= row_scratch
    np.exp(logits, out=logits)
    np.add.reduce(logits, axis=-1, keepdims=True, out=row_scratch)
    logits /= row_scratch
    return logits


def _loss_from_probs(probs: Array, label_at: Array) -> Array:
    """The k mean cross-entropies of a stack of probabilities, flat, whose label entries are at label_at (k, m)."""
    n = label_at.shape[-1]
    picked = probs.take(label_at)
    np.maximum(picked, PROB_FLOOR, out=picked)
    np.log(picked, out=picked)
    # the sum and division .mean() runs, negated after rather than before: the
    # same bits, without mean()'s Python wrappers; each model's rows are summed alone
    return -(np.add.reduce(picked, axis=-1) / n)


def loss_and_grad_raw(
    values: Array, spec: MlpSpec, inputs: Array, labels: Array, workspace: Workspace | None = None,
    grad: Array | None = None, loss: bool = True, scale: float = 1.0,
) -> tuple[Array | None, Array]:
    """Mean cross-entropy and scale times its exact gradient, both on raw arrays.

    A stack (k, P) with inputs (k, m, d) and labels (k, m) is k models'
    steps in lockstep: k losses and a (k, P) gradient; one model is a stack
    of one, and labels are not checked. Each model's slice runs the same
    operations, with the same BLAS calls on the same shapes, as its own
    call, so the same bits. Every intermediate is written into workspace (a
    temporary one sized to the batch when omitted), the gradient into grad,
    a C-contiguous (k, P) stack, or else into the workspace, where the next
    call overwrites it. With loss false no loss is computed: it is None.
    The gradient is scaled with the bits of a last grad *= scale; one model's
    batch of 2 to FOLD_ROWS rows in the workspace's inputs takes the scale as
    each weight product's alpha on OpenBLAS (see fedsim.machine) instead.
    """
    (k, _), m = values.shape, inputs.shape[-2]
    ws = workspace if workspace is not None else Workspace(spec, m, k)
    v = ws.fit(spec, k, m)
    layers = ws.layers(values)
    if grad is None:
        grad, grad_layers = v.grad, v.grad_layers
    elif grad.flags.c_contiguous:  # else its layer views would be copies
        grad_layers = ws.layers(grad)
    else:
        raise ValueError("a gradient stack must be C-contiguous")

    # OpenBLAS skips an alpha = 0 product, where 0 * g gives -0 or nan
    gemm = machine._blas_dgemm() if v.fold and inputs is v.inputs and scale != 0.0 else None
    probs = _softmax_inplace(_forward(layers, v.relu, inputs, v.outs), v.row_scratch)
    at = v.label_base + labels
    loss = _loss_from_probs(v.probs, at) if loss else None

    delta = probs  # the output delta (probs - onehot) / m overwrites the probabilities
    v.probs[at] -= 1.0
    if m > 1:  # x / 1 is x
        delta /= m

    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        a = inputs if i == 0 else v.outs[i - 1]
        if m == 1:
            # a one-row product is one rounded multiply added onto +0, as in the
            # dgemm, but einsum skips BLAS's fixed cost; wider batches keep BLAS,
            # whose summation order the results depend on
            _c_einsum("...ki,...kj->...ij", a, delta, out=gw)
        elif gemm is not None:  # the dgemm np.matmul runs (row-major, a transposed), alpha = scale
            din, dout = gw.shape[-2:]
            gemm(101, 112, 111, din, dout, m, scale, v.addresses[i], din, v.addresses[i + 1], dout, 0.0,
                 gw.ctypes.data, dout)
        else:
            np.matmul(a.swapaxes(-1, -2), delta, out=gw)
        np.add.reduce(delta, axis=-2, keepdims=True, out=gb)
        if gemm is not None:
            gb *= scale
        if i > 0:  # the output gw read gives the mask (max(z, 0) > 0 just where z > 0), then takes the delta
            if v.relu:
                np.greater(a, 0.0, out=v.masks[i - 1])
            np.matmul(delta, layers[i][0].swapaxes(-1, -2), out=a)
            if v.relu:
                np.multiply(a, v.masks[i - 1], out=a)
            delta = a
    if gemm is None and scale != 1.0:  # x * 1 is x
        grad *= scale
    return loss, grad


def loss_raw(
    values: Array, spec: MlpSpec, inputs: Array, labels: Array, workspace: Workspace | None = None
) -> Array:
    """The k mean softmax cross-entropies of a stack, on raw arrays, unchecked; loss() validates and wraps it.

    Shapes as in loss_and_grad_raw. The forward pass runs in the layer buffers
    of workspace (a temporary one sized to the batch when omitted), which
    must fit the batch.
    """
    (k, _), m = values.shape, inputs.shape[-2]
    ws = workspace if workspace is not None else Workspace(spec, m, k)
    v = ws.fit(spec, k, m)
    _softmax_inplace(forward_logits(values, spec, inputs, v.outs, ws.layers(values)), v.row_scratch)
    return _loss_from_probs(v.probs, v.label_base + labels)


def loss(params: ParamVector, batch: Batch) -> float:
    """Mean softmax cross-entropy of the batch under the given parameters."""
    _check_batch(params.spec, batch)
    return float(loss_raw(params.values[None], params.spec, batch.inputs[None], batch.labels[None])[0])


def loss_grad(params: ParamVector, batch: Batch) -> tuple[float, GradVector]:
    """Loss plus its gradient w.r.t. every parameter, via backpropagation."""
    _check_batch(params.spec, batch)
    value, grad = loss_and_grad_raw(params.values[None], params.spec, batch.inputs[None], batch.labels[None])
    return float(value[0]), GradVector(grad[0], params.spec)


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


def _moving_average(rate: float, old: Array | None, term: Array) -> Array:
    """rate * old + term as a new array; a buffer not yet started counts as zeros.

    Zeros plus term, not a copy of term: 0.0 + -0.0 is 0.0, as rate * 0.0 + term gives.
    """
    out = np.zeros_like(term) if old is None else np.multiply(rate, old)
    return np.add(out, term, out=out)


def server_apply(
    state: ServerOptimizerState, params: ParamVector, pseudo_grad: GradVector
) -> tuple[ParamVector, ServerOptimizerState]:
    """Advance the global weights one server step along the pseudo-gradient.

    With g the pseudo-gradient and t the new step count:
      sgd:     w - lr * g
      adam:    m = beta1 * m + (1 - beta1) * g, v = beta2 * v + (1 - beta2) * g * g,
               w - lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
      rmsprop: v = rho * v + (1 - rho) * g * g, w - lr * g / (sqrt(v) + eps)
    Each operation runs in that order, left to right, so the bits are those of
    the expressions as written, but into the arrays returned plus one scratch
    vector, with no other temporary. The inputs are left unchanged.
    """
    if params.spec != pseudo_grad.spec:
        raise ShapeMismatchError("params and pseudo-gradient disagree on architecture")
    g = pseudo_grad.values
    t = state.step + 1

    if state.kind == "sgd":
        new_values = np.multiply(state.lr, g)
        new_state = replace(state, step=t)
    else:
        scratch = np.empty_like(g)
        rate = state.beta2 if state.kind == "adam" else state.rho
        np.multiply(1.0 - rate, g, out=scratch)
        v = _moving_average(rate, state.v, np.multiply(scratch, g, out=scratch))
        if state.kind == "adam":
            m = _moving_average(state.beta1, state.m, np.multiply(1.0 - state.beta1, g, out=scratch))
            new_values = np.divide(m, 1.0 - state.beta1**t)  # m_hat
            np.multiply(state.lr, new_values, out=new_values)
            root = np.divide(v, 1.0 - state.beta2**t, out=scratch)  # v_hat
            new_state = replace(state, step=t, m=m, v=v)
        else:
            new_values = np.multiply(state.lr, g)
            root = v
            new_state = replace(state, step=t, v=v)
        np.add(np.sqrt(root, out=scratch), state.eps, out=scratch)
        np.divide(new_values, scratch, out=new_values)
    np.subtract(params.values, new_values, out=new_values)
    return ParamVector(new_values, params.spec), new_state
