"""Small shared utilities: integer math, deterministic hashing, seeding."""

from repro.util.intmath import (
    ceil_div,
    ilog2,
    is_power_of_two,
    next_power_of_two,
    next_power_of_two_at_least,
)
from repro.util.hashing import splitmix64, WeightedNodeHasher
from repro.util.seeding import derive_seed

__all__ = [
    "ceil_div",
    "ilog2",
    "is_power_of_two",
    "next_power_of_two",
    "next_power_of_two_at_least",
    "splitmix64",
    "WeightedNodeHasher",
    "derive_seed",
]
