"""Deterministic seed derivation for reproducible simulations.

Every stochastic component (init, client selection, batch shuffling) draws
from its own numpy Generator whose seed is derived from the run seed plus a
context path, so results never depend on call order or parallelism.
"""

from __future__ import annotations

import hashlib


def derive_seed(*parts: int | str) -> int:
    """Map a context path like (run_seed, round, client_id) to a 64-bit seed.

    Uses blake2b so the mapping is stable across platforms and Python
    versions (the builtin hash() is salted per process).
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode())
        h.update(b"/")
    return int.from_bytes(h.digest(), "big")
