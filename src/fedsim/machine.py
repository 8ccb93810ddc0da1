"""What a run's bits and speed depend on beyond its config.

Float64 results are bitwise reproducible within one envelope: one numpy and
BLAS build, one CPU feature set (the BLAS picks its kernels from it), and one
BLAS thread count, which the thread variables set or else the usable CPUs do.
A threaded BLAS sums large products in an order its thread count decides.
How many processes a round's cohort trains on is not part of the envelope:
the parent folds every client in client-id order (see federation.run_round).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), or os.cpu_count() where there is none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
