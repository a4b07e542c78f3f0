"""Deterministic RNG stream derivation.

Every random draw in the package flows from a single top-level seed.
Stage names are hashed into the seed material so that adding a new stage
never shifts the streams consumed by existing ones, and per-sample
streams are independent regardless of evaluation order.
"""

import hashlib
import numbers

import numpy as np

__all__ = ["derive_rng", "derive_seed_sequence"]


def derive_seed_sequence(seed, stage, index=0):
    """Build a SeedSequence for one named stage of a run.

    Parameters
    ----------
    seed : int
        Top-level run seed (non-negative).
    stage : str
        Name of the pipeline stage, e.g. ``"phantom"`` or ``"mc-sample"``.
    index : int, optional
        Per-item counter inside the stage (sample number, partition id).

    A seed or index that is not an integer (1.5, 2.0) raises
    ValueError rather than being truncated onto another stream, and so
    does a stage that is not a str.
    """
    for name, value in (("seed", seed), ("index", index)):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not isinstance(stage, str):
        raise ValueError(f"stage must be a str, got {stage!r}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    digest = hashlib.sha256(stage.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    return np.random.SeedSequence([int(seed), *words, int(index)])


def derive_rng(seed, stage, index=0):
    """Generator seeded from (seed, stage, index); see derive_seed_sequence."""
    return np.random.default_rng(derive_seed_sequence(seed, stage, index))
