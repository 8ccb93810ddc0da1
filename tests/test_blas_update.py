"""The weight update through the BLAS gives numpy's bits: daxpy for w -= g, dgemm's alpha for g *= lr.

_sgd_epoch subtracts each step's scaled gradient with fedsim.machine.blas_subtract:
the BLAS's daxpy on its own threads, or numpy's w -= g where the BLAS has no
daxpy or runs one thread. The two must agree bit for bit at any BLAS thread
count, on special values too, and so must whole runs trained either way.
The kernel (nn.loss_and_grad_raw) takes lr as one model's weight products'
alpha on up to nn.FOLD_ROWS rows, and must give the bits of the product then
g *= lr: on each product, on each of its paths, and on whole runs.
"""

import contextlib

import numpy as np
import pytest
from test_blas_pin import large_run
from test_golden import digest

from fedsim import federation, machine
from fedsim.data import synth_dataset
from fedsim.federation import CentralConfig, train_centralized
from fedsim.nn import FOLD_ROWS, MlpSpec, Workspace, init_params, loss_and_grad_raw

needs_daxpy = pytest.mark.skipif(machine._blas_daxpy() is None, reason="this BLAS has no daxpy")
needs_dgemm = pytest.mark.skipif(machine._blas_dgemm() is None, reason="this BLAS is not OpenBLAS")
# a run takes the daxpy path only where the BLAS has more than one thread to spread it over
needs_threads = pytest.mark.skipif(machine.blas_thread_count() == 1, reason="the BLAS runs one thread here")

SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, -1e-310, 1.0, np.inf, -np.inf, np.nan, 1e308, -1e308]


def operands(shape, seed):
    """w and g of the shape, every pair of SPECIALS among their leading entries, the rest spread over 600 decades."""
    rng = np.random.default_rng(seed)
    w, g = (rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape) for _ in range(2))
    pairs = len(SPECIALS) ** 2
    w.reshape(-1)[:pairs] = np.repeat(SPECIALS, len(SPECIALS))
    g.reshape(-1)[:pairs] = np.tile(SPECIALS, len(SPECIALS))
    return w, g


@contextlib.contextmanager
def blas_mode(mode, monkeypatch):
    """The BLAS's daxpy on one thread, at the BLAS's own count, or no daxpy found (numpy's w -= g)."""
    if mode == "numpy":
        monkeypatch.setattr(machine, "_blas_daxpy", lambda: None)
        yield
    elif mode == "one_thread":
        with machine.one_blas_thread():
            yield
    else:
        yield


def update(w, g):
    """w -= g as _sgd_epoch runs it."""
    subtract = machine.blas_subtract(w)
    if subtract is None:
        w -= g
    else:
        subtract(g.ctypes.data)


def assert_same_bits(got, expected):
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)  # a nan's sign and payload may differ
    assert np.array_equal(got.view(np.int64)[~nan], expected.view(np.int64)[~nan])


@pytest.mark.parametrize("mode", ["one_thread", "default", "numpy"])
@pytest.mark.parametrize("shape", [(20_011,), (4, 5_003)], ids=["vector", "stack"])
def test_the_update_equals_numpys_subtraction(monkeypatch, mode, shape):
    # above 10,000 entries OpenBLAS splits a daxpy over its threads
    w, g = operands(shape, seed=sum(shape))
    with np.errstate(all="ignore"):
        expected = w - g
        with blas_mode(mode, monkeypatch):
            daxpy = machine._blas_daxpy()
            if daxpy is not None:  # the call itself, which blas_subtract leaves to numpy at one thread
                raw = w.copy()
                daxpy(raw.size, -1.0, g.ctypes.data, 1, raw.ctypes.data, 1)
                assert_same_bits(raw, expected)
            update(w, g)
    assert_same_bits(w, expected)


@needs_daxpy
@pytest.mark.skipif(machine.blas_thread_count() is None, reason="this BLAS has no thread-count call")
def test_one_blas_thread_keeps_numpys_subtraction():
    with machine.one_blas_thread():
        assert machine.blas_subtract(np.zeros(20_011)) is None


def test_an_array_daxpy_cannot_span_keeps_numpys_subtraction():
    assert machine.blas_subtract(np.zeros((2, 20_011))[:, ::2]) is None
    assert machine.blas_subtract(np.zeros(20_011, dtype=np.float32)) is None


def centralized_run() -> str:
    """The digest of 2 epochs of centralized B=10 SGD on the 400-400-3 net of large_run."""
    ds = synth_dataset(3, 400, 120, seed=51)
    config = CentralConfig(lr=0.05, batch_size=10, epochs=2)
    history, weights = train_centralized(MlpSpec((400, 400, 3)), ds, None, config, seed=54)
    return digest(history, weights.values)


@needs_daxpy
@needs_threads
@pytest.mark.parametrize("run", [large_run, centralized_run], ids=["federated", "centralized"])
def test_a_run_trains_to_the_same_bits_with_and_without_daxpy(monkeypatch, run):
    daxpy, calls = machine._blas_daxpy(), []
    monkeypatch.setattr(machine, "_blas_daxpy", lambda: lambda *args: calls.append(1) or daxpy(*args))
    through_blas = run()
    assert calls  # the steps subtracted through the BLAS
    monkeypatch.setattr(machine, "_blas_daxpy", lambda: None)
    assert run() == through_blas


# the layer shapes of the benchmark's workloads and the presets
LAYER_SHAPES = [(784, 500), (500, 200), (200, 10), (784, 200), (784, 64), (100, 128), (400, 400)]


def folded_product(a, delta, scale):
    """scale * (a.T @ delta) as the kernel's one dgemm with alpha = scale computes it."""
    (m, din), dout = a.shape, delta.shape[1]
    out = np.empty((din, dout))
    machine._blas_dgemm()(
        101, 112, 111, din, dout, m, scale, a.ctypes.data, din, delta.ctypes.data, dout, 0.0, out.ctypes.data, dout
    )
    return out


@needs_dgemm
@pytest.mark.parametrize("threads", [1, 2])
def test_a_folded_product_equals_the_product_then_the_scaling(threads):
    # every batch size up to the bound, the layer shapes in turn; within one K block alpha rounds once
    rng = np.random.default_rng(threads)
    a_pool, delta_pool = rng.normal(size=FOLD_ROWS * 784), rng.normal(size=FOLD_ROWS * 500)
    set_threads, get_threads = machine._blas_thread_calls()
    before = get_threads()
    set_threads(threads)
    try:
        for m in range(2, FOLD_ROWS + 1):
            din, dout = LAYER_SHAPES[(m + 3 * threads) % len(LAYER_SHAPES)]
            a, delta = a_pool[: m * din].reshape(m, din), delta_pool[: m * dout].reshape(m, dout)
            scale = (0.05, 0.1, 1 / 3, 0.0127, 7.5)[m % 5]
            expected = np.matmul(a.T, delta)
            expected *= scale
            assert_same_bits(folded_product(a, delta, scale), expected)
    finally:
        set_threads(before)


def counting_dgemm(monkeypatch) -> list:
    """Patch the dgemm lookup to count its calls; returns the list each call appends to."""
    dgemm, calls = machine._blas_dgemm(), []
    monkeypatch.setattr(machine, "_blas_dgemm", lambda: lambda *args: calls.append(1) or dgemm(*args))
    return calls


@pytest.mark.parametrize(
    "k, rows, folds",
    [(1, 8, True), (1, FOLD_ROWS, True), (3, 8, False), (1, 1, False), (1, FOLD_ROWS + 1, False), (1, 8, None)],
    ids=["folded", "folded-at-bound", "stack", "one-row", "above-bound", "no-dgemm"],
)
@pytest.mark.parametrize("scale", [0.05, 1 / 3, 0.0])
def test_the_kernel_returns_scale_times_its_gradient(monkeypatch, k, rows, folds, scale):
    # folds None: the lookup finds no dgemm, as on a BLAS other than OpenBLAS
    spec = MlpSpec((30, 16, 5))
    rng = np.random.default_rng(rows + k)
    ws = Workspace(spec, rows, k)
    views = ws.fit(spec, k, rows)
    views.inputs[:] = rng.random(views.inputs.shape)
    labels = rng.integers(0, 5, size=(k, rows))
    values = np.stack([init_params(spec, seed).values for seed in range(k)])
    unscaled = loss_and_grad_raw(values, spec, views.inputs, labels, ws)[1].copy()
    found = folds is not None and machine._blas_dgemm() is not None
    if folds is None:
        monkeypatch.setattr(machine, "_blas_dgemm", lambda: None)
    calls = counting_dgemm(monkeypatch) if found else []
    _, grad = loss_and_grad_raw(values, spec, views.inputs, labels, ws, scale=scale)
    assert_same_bits(grad, unscaled * scale)
    assert len(calls) == (2 if found and folds and scale != 0.0 else 0)  # one per layer


@needs_dgemm
@pytest.mark.parametrize("run", [large_run, centralized_run], ids=["federated", "centralized"])
def test_a_run_trains_to_the_same_bits_with_and_without_the_folded_rate(monkeypatch, run):
    calls = counting_dgemm(monkeypatch)
    folded = run()
    assert calls  # the steps took lr as the products' alpha
    monkeypatch.setattr(machine, "_blas_dgemm", lambda: None)
    assert run() == folded


@needs_dgemm
def test_a_one_model_step_on_the_mnist_shaped_net_folds_every_layer(monkeypatch):
    # the step fed_mnist_shaped and the presets' large nets take: 784-500-200-10, B = 10
    spec = MlpSpec((784, 500, 200, 10))
    ds = synth_dataset(10, 784, 40, seed=3)
    w = init_params(spec, 4).values[None].copy()
    calls = counting_dgemm(monkeypatch)
    federation._sgd_epoch(w, spec, ds, np.arange(10)[None], 10, 0.05, Workspace(spec, 10), None)
    assert len(calls) == 3
