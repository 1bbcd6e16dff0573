"""Counter-based seeded randomness.

Every random draw in the package flows through :func:`derive_rng`, which maps
(master seed, purpose tag, index tuple) to an independent Philox stream.
Philox is counter-based, so derived streams can be created in any order (or
in parallel) and always reproduce bit-identically; nothing depends on how
many draws other streams have consumed.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_rng"]


def derive_rng(master_seed: int, *parts: object) -> np.random.Generator:
    """Return a Generator keyed by (master_seed, *parts).

    The key string ``<master_seed>|<part>:<part>:...`` is hashed with BLAKE2b
    into the 128-bit Philox key, so distinct part tuples give statistically
    independent streams.
    """
    tag = f"{master_seed}|" + ":".join(str(p) for p in parts)
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=16).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
