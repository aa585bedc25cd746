"""Seeded, splittable random streams.

All stochastic operations in this package take an explicit
``numpy.random.Generator``.  Roots are built on the Philox counter-based
bit generator so that spawned child streams are independent and the whole
tree is reproducible from a single integer seed.
"""
from __future__ import annotations

import os

import numpy as np

SEED_ENV_VAR = "QTL_SEED"
_DEFAULT_SEED = 0


def default_seed() -> int:
    """Seed of the experiment commands when none is given; the QTL_SEED env
    var overrides it.  Commands that make secrets draw OS entropy instead."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return _DEFAULT_SEED
    return int(raw)


def root_rng(seed: int | None = None) -> np.random.Generator:
    if seed is None:
        seed = default_seed()
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def new_serial(rng: np.random.Generator) -> str:
    """Fresh 128-bit serial as a 32-char hex string."""
    return rng.bytes(16).hex()
