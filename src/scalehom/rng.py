"""Keyed random streams for reproducible parallel Monte Carlo.

Every consumer derives its stream key by hashing (root seed, purpose label,
stream index) and opens one generator per (key, counter) cell; no two cells
share mutable state, so results are identical for any worker count and
scheduling order.  Two generators serve the cells, each with its own
independence argument:

* :func:`stream` is Philox, a counter-based generator: the (key, counter)
  pair is its 128-bit key, and distinct keys give streams that are
  independent by construction (Salmon et al., SC'11).
* :func:`sfc64_stream`, cheaper per normal, serves the proxy SDE's
  per-step draws.  SFC64 takes its initial state from SeedSequence, which
  hashes the (key, counter) entropy so that distinct cells start from
  well-separated states (O'Neill, "PCG", 2014).
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_key(root_seed: int, label: str, index: int = 0) -> int:
    """64-bit stream key from (root seed, purpose label, stream index)."""
    msg = f"{root_seed}:{label}:{index}".encode()
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "little")


def stream(root_seed: int, label: str, index: int = 0, counter: int = 0) -> np.random.Generator:
    """Fresh Philox generator for the given (seed, label, index, counter) cell."""
    key = np.array([derive_key(root_seed, label, index), counter], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sfc64_stream(root_seed: int, label: str, index: int = 0,
                 counter: int = 0) -> np.random.Generator:
    """Fresh SFC64 generator for the given (seed, label, index, counter) cell,
    seeded by SeedSequence from the cell's key and counter."""
    seq = np.random.SeedSequence([derive_key(root_seed, label, index), counter])
    return np.random.Generator(np.random.SFC64(seq))
