"""What a run's bits and speed depend on beyond its config.

Float64 results are bitwise reproducible within one envelope: one numpy and
BLAS build, one CPU feature set (the BLAS picks its kernels from it), and one
BLAS thread count, which the thread variables set or else the usable CPUs do.
A threaded BLAS sums large products in an order its thread count decides.
A federated run whose local steps all fit one BLAS thread leaves the thread
count out of its envelope: train_federated runs its rounds under
one_blas_thread, so its evaluation and shard-loss products sum in the
one-thread order whatever the thread variables and CPUs say. Where the BLAS
has no thread-count call (MKL, Accelerate) nothing is pinned, and the
thread count stays in the envelope. How many processes a round's cohort
trains on is not part of it: each process folds its groups in turn, so the
sum adds every client's term, the bits it gets in any group, in cohort order
(see federation.run_round). Nor is whether w -= g ran as daxpy with
alpha = -1 (blas_subtract) or in numpy: y + (-1.0 * x) rounds like y - x,
fused or not, and daxpy computes each entry alone at any thread count. Nor
is whether a gradient took lr as its dgemm's alpha (nn.loss_and_grad_raw)
or as g *= lr: OpenBLAS applies alpha once as it stores each K block, so a
one-block product gets round(lr * sum) either way (but not with beta = 1).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (set, get) thread-count calls and cblas names with their int type: numpy's wheel bundles OpenBLAS under
# a prefix and a suffix (with 64-bit ints), a system OpenBLAS keeps the plain names (with C ints)
_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_CBLAS_NAMES = (("scipy_cblas_{}64_", ctypes.c_int64), ("cblas_{}", ctypes.c_int))


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), or os.cpu_count() where there is none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _blas_lib():
    """numpy's core module as a ctypes library, whose lookup also finds its BLAS's symbols, or None if it won't load."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy before 2.0
        from numpy.core import _multiarray_umath as umath
    try:
        return ctypes.CDLL(umath.__file__)
    except OSError:
        return None


@functools.cache
def _blas_thread_calls():
    """The (set, get) thread-count calls of the BLAS numpy has loaded, or None where it has none."""
    lib = _blas_lib()  # None has none of the names
    for set_name, get_name in _THREAD_CALLS:
        if hasattr(lib, set_name) and hasattr(lib, get_name):
            set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


def _cblas(routine: str, argtypes):
    """The cblas routine of the BLAS numpy has loaded, its arguments argtypes(int type), or None where it has none."""
    for pattern, int_ in _CBLAS_NAMES:
        call = getattr(_blas_lib(), pattern.format(routine), None)  # None has none of the names
        if call is not None:
            call.argtypes, call.restype = argtypes(int_), None
            return call
    return None


@functools.cache
def _blas_daxpy():
    """The daxpy(n, alpha, x, incx, y, incy) of the BLAS numpy has loaded, or None where it has none."""
    return _cblas("daxpy", lambda i: [i, ctypes.c_double, ctypes.c_void_p, i, ctypes.c_void_p, i])


@functools.cache
def _blas_dgemm():
    """OpenBLAS's cblas_dgemm(order, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc), else None (see above)."""
    if _blas_thread_calls() is None:  # only OpenBLAS's names are known, and its alpha once per K block
        return None
    ptr, real = ctypes.c_void_p, ctypes.c_double
    return _cblas("dgemm", lambda i: [ctypes.c_int] * 3 + [i] * 3 + [real, ptr, i, ptr, i, real, ptr, i])


def blas_thread_count() -> int | None:
    """The thread count the BLAS reports now, or None where it has no thread-count call."""
    calls = _blas_thread_calls()
    return None if calls is None else calls[1]()


def blas_subtract(w: np.ndarray):
    """A call subtract(address of g) running w -= g as daxpy with alpha = -1, or None to run numpy's w -= g.

    g is a C-contiguous float64 array of w's shape; both ways give the same bits. None where the BLAS has no
    daxpy, or one thread (a one-thread daxpy saves nothing and costs microseconds a call), or daxpy cannot span w.
    """
    daxpy = _blas_daxpy()
    spans = w.dtype == np.float64 and w.flags.c_contiguous and w.size < 2**31  # a C int's range
    if daxpy is None or blas_thread_count() == 1 or not spans:
        return None
    n, w_address = w.size, w.ctypes.data
    return lambda g_address: daxpy(n, -1.0, g_address, 1, w_address, 1)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with the BLAS on one thread and restore its previous count however the block ends.

    Processes forked inside the block inherit the one thread. Where the BLAS
    has no thread-count call it pins nothing.
    """
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    set_threads, get_threads = calls
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _cpu_flags_sha() -> str:
    """A short sha256 of the first CPU's feature flags in /proc/cpuinfo ("unknown" without it)."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "flags":
                    return hashlib.sha256(value.strip().encode()).hexdigest()[:12]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict[str, str | int]:
    """The envelope of this process: numpy, BLAS name and version, CPU flags, usable CPUs, thread variables.

    An unset thread variable reads "unset".
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": str(blas.get("name", "unknown")),
        "blas_version": str(blas.get("version", "unknown")),
        "cpu_flags_sha": _cpu_flags_sha(),
        "cpus": usable_cpus(),
        **{var.lower(): os.environ.get(var, "unset") for var in THREAD_VARS},
    }
