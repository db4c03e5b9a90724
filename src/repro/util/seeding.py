"""Hierarchical seed derivation.

Randomized protocols (Algorithms 1, 2 and weighted TeraSort) need several
independent random streams — one hash function per partition block, one
sampling stream per node — that are reproducible from a single user seed.
``derive_seed`` derives a 64-bit child seed from a parent seed and an
arbitrary tuple of tokens using BLAKE2b, which is stable across processes
and Python versions (unlike the builtin ``hash``).
"""

from __future__ import annotations

import hashlib
from typing import Hashable


def derive_seed(seed: int, *tokens: Hashable) -> int:
    """Derive a reproducible 64-bit seed from ``seed`` and ``tokens``."""
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(str(int(seed)).encode("utf-8"))
    for token in tokens:
        hasher.update(b"\x1f")  # unit separator: ("ab","c") != ("a","bc")
        hasher.update(repr(token).encode("utf-8"))
    return int.from_bytes(hasher.digest(), "little")
