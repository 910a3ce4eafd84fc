"""Deterministic RNG stream derivation.

All samplers take a 64-bit master seed.  Independent streams (per
replica, per experiment row) are derived with a counter-based spawn key
so that results are reproducible and independent of worker count or
completion order.  Seeds and keys must be nonnegative integers (Python
or numpy); anything else, bools included, raises ValidationError rather
than being truncated.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = ["derive_rng"]


def _check_integer(name: str, value, minimum: int = 0) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, >= minimum.
    Seeds, keys and the library's counts share this check."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *key): a SeedSequence
    with ``seed`` as entropy and ``key`` as a stable counter-based spawn key."""
    return np.random.default_rng(np.random.SeedSequence(
        entropy=_check_integer("seed", seed),
        spawn_key=tuple(_check_integer("key", k) for k in key),
    ))
