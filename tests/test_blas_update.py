"""The weight update's w -= g through the BLAS's daxpy (alpha = -1) gives numpy's bits.

_sgd_epoch subtracts each step's scaled gradient with fedsim.machine.blas_subtract:
the BLAS's daxpy on its own threads, or numpy's w -= g where the BLAS has no
daxpy or runs one thread. The two must agree bit for bit at any BLAS thread
count, on special values too, and so must whole runs trained either way.
"""

import contextlib

import numpy as np
import pytest
from test_blas_pin import large_run
from test_golden import digest

from fedsim import machine
from fedsim.data import synth_dataset
from fedsim.federation import CentralConfig, train_centralized
from fedsim.nn import MlpSpec

needs_daxpy = pytest.mark.skipif(machine._blas_daxpy() is None, reason="this BLAS has no daxpy")
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
